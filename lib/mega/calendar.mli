(** The event calendar of the mega engine: a timing wheel with an
    overflow heap.

    Events are 5-int records [(kind, a, b, c, d)] scheduled at integer
    virtual times.  Events within the wheel horizon ([now, now + W)),
    [W = 4096] ticks, live in per-time buckets of the wheel; farther
    events wait in a binary min-heap keyed by [(time, seq)] and are
    drained into the wheel as [now] advances past their horizon.  Both
    paths preserve global creation (FIFO) order among events with
    equal timestamps: heap entries for a bucket are drained before any
    direct insert into that bucket epoch can occur, and within each
    path entries are kept in sequence order.

    Storage: a bucket is a FIFO of fixed-size chunks of 512 records
    (2 560 ints), all taken from one free stack owned by the calendar.
    A chunk goes back on the stack as soon as its last record is read,
    so a drained bucket holds nothing, and no record is ever copied.
    With at most [P] events pending and at most [B] nonempty
    buckets, the calendar holds at most [P/512 + 2B] chunks beside its
    fixed wheel arrays (four [W]-int arrays and a [W]-byte occupancy
    map) and the heap.

    [pop]/[schedule] are allocation-free after warm-up (chunks, heap
    and the popped-event fields are reused): a chunk is allocated only
    when more are in use at once than ever before, which is what keeps
    the engine at millions of events per second. *)

type t

val create : unit -> t
(** An empty calendar at time 0 with a [W = 4096]-tick wheel and no
    chunks. *)

val now : t -> int
(** Current virtual time: the timestamp of the last popped event. *)

val pending : t -> int
(** Events scheduled and not yet popped. *)

val schedule : t -> at:int -> kind:int -> a:int -> b:int -> c:int -> d:int -> unit
(** Schedule an event at virtual time [at] ([at < now] is clamped to
    [now]).  Fields must be nonnegative ints (the engine packs ids and
    payloads; nothing is boxed). *)

val pop : t -> bool
(** Advance to and consume the earliest pending event; [false] when
    the calendar is empty.  After [pop t = true] the event is exposed
    by {!ev_kind} .. {!ev_d} until the next [pop]. *)

val ev_kind : t -> int
val ev_a : t -> int
val ev_b : t -> int
val ev_c : t -> int
val ev_d : t -> int
