(** Local failure-detector transformers.

    A reduction between AFDs (Section 5.4: "solving an AFD using
    another") is a distributed algorithm whose inputs at each location
    are the source detector's outputs there (plus the location's own
    crash) and whose outputs are the target detector's outputs.  All of
    the paper-relevant reductions in our catalog are {e local}: the
    output at a location is a function of the latest source output
    received at that location, so no messages are needed.  (Message-
    based algorithms appear in the consensus library.)

    The combined alphabet carries both detectors' events. *)

open Afd_ioa

type ('i, 'o) act =
  | In of 'i Fd_event.t  (** crash events and source-detector outputs *)
  | Out of Loc.t * 'o  (** target-detector outputs *)

val pp_act : 'i Fmt.t -> 'o Fmt.t -> ('i, 'o) act Fmt.t

type 'i state = { latest : 'i option; failed : bool }

val local_transformer :
  name:string -> loc:Loc.t -> f:(Loc.t -> 'i -> 'o) -> ('i state, ('i, 'o) act) Automaton.t
(** The transformer at location [loc]: remembers the latest source
    output, continually emits [f loc latest] (one output per task
    firing), stops after its own crash.  No output before the first
    source output arrives. *)

type ('i, 'o) run = {
  source : 'i Fd_event.t list;  (** [t|Î∪O_D] *)
  target : 'o Fd_event.t list;  (** [t|Î∪O_D'] *)
}

val run :
  detector:('s, 'i Fd_event.t) Automaton.t ->
  f:(Loc.t -> 'i -> 'o) ->
  name:string ->
  n:int ->
  seed:int ->
  crash_at:(int * Loc.t) list ->
  steps:int ->
  ('i, 'o) run
(** Compose the source detector automaton, the crash automaton and the
    [n] transformers; run a fair random schedule with the given fault
    pattern; project out both detectors' traces. *)

val apply_to_trace : f:(Loc.t -> 'i -> 'o) -> 'i Fd_event.t list -> 'o Fd_event.t list
(** Pure form used by spec-level tests: map every output event through
    [f] (crash events pass through).  This is the trace the transformer
    network produces when the scheduler happens to interleave one
    target output after each source output. *)
