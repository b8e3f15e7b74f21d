(** The process universe: dense interned ids, flat status bytes.

    External process identities (arbitrary ints — initial members are
    [0..n-1], joiners get fresh large ids) are interned to dense ids
    [0..count-1]: initial members keep their id, joiners are looked up
    in one hash table.  So every per-process table in the engine and
    the detectors is a flat array indexed by dense id.  Statuses are
    one byte per process; nothing here is O(universe) per event. *)

type t

(** Status codes. *)

val live : int
val crashed : int
val left : int

val create : cap:int -> n:int -> t
(** [create ~cap ~n] starts with processes [0..n-1] live (external id
    = dense id) and room for [cap - n] joiners. *)

val cap : t -> int
val count : t -> int
(** Dense ids allocated so far (live or not). *)

val live_count : t -> int

val status : t -> int -> int
(** Status of a dense id ({!live}, {!crashed} or {!left}). *)

val is_live : t -> int -> bool

val set_status : t -> int -> int -> unit
(** Transition a dense id's status, maintaining the live count. *)

val join : t -> ext:int -> int option
(** Intern a fresh external id as a new live process; [None] when the
    capacity is exhausted or the external id is already present. *)

val ext_id : t -> int -> int
(** External identity of a dense id. *)
