(** Full-system assembly (Figure 1) and run helpers.

    A net composes: one process automaton per location, the n(n-1)
    reliable FIFO channels, the crash automaton, optional
    failure-detector components, optional detector transformers, and
    environment components. *)

open Afd_ioa

type t = {
  n : int;
  composition : Act.t Composition.t;
}

val assemble :
  n:int ->
  ?detectors:Act.t Component.t list ->
  ?environment:Act.t Component.t list ->
  ?extras:Act.t Component.t list ->
  ?channels:Act.t Component.t list ->
  crashable:Loc.Set.t ->
  processes:Act.t Component.t list ->
  unit ->
  t
(** Build the composition in Figure 1's shape.  [extras] is for
    transformer components and test instrumentation; [channels]
    defaults to the reliable FIFO channels of §4.3 and can be replaced
    by {!Channel.lossy_pairs} / {!Channel.duplicating_pairs} for the
    substrate-assumption experiments. *)

type run = {
  outcome : Act.t Scheduler.outcome;
  trace : Act.t list;  (** the full schedule of the run *)
}

val run : t -> seed:int -> crash_at:(int * Loc.t) list -> steps:int -> run
(** Fair random schedule with the given fault pattern.  [trace] is the
    complete schedule. *)

val run_round_robin :
  t -> crash_at:(int * Loc.t) list -> steps:int -> run

val decisions : Act.t list -> (Loc.t * bool) list
(** All [decide] events of a trace, in order. *)

val proposals : Act.t list -> (Loc.t * bool) list
