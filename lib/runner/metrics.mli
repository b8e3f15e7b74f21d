(** Typed per-run metrics collected by the parallel experiment engine.

    Every matrix cell (one seeded run of one experiment under one fault
    pattern) produces an {!outcome}; the engine places it in a {!cell}
    and groups cells into an {!exp} row.  Nothing here reads a clock,
    so two runs with the same root seed compare byte-for-byte (see
    [Report.to_json]). *)

open Afd_core

type outcome = {
  verdict : Verdict.t;
  steps_fired : int;
      (** events the run produced (trace length), or the step budget
          when the experiment does not expose its trace *)
  quiescent : bool;
  detail : string;
      (** free-form row fragment for custom renderers; [""] if unused *)
  counterexample : int option;
      (** minimal violating prefix index reported by an online property
          monitor, when the run was property-checked and violated *)
  clauses : (string * Verdict.t) list;
      (** per-clause verdicts from an online property monitor, in
          formula order; [[]] when the run was not property-checked *)
}

val outcome :
  ?steps:int ->
  ?quiescent:bool ->
  ?detail:string ->
  ?counterexample:int ->
  ?clauses:(string * Verdict.t) list ->
  Verdict.t ->
  outcome

val of_result : ?steps:int -> ?detail:string -> (unit, string) result -> outcome
(** [Ok () -> Sat], [Error e -> Violated e]. *)

type counts = { sat : int; undecided : int; violated : int }

val counts : outcome list -> counts
val all_sat : outcome list -> bool

type cell = {
  seed_index : int;
  fault_index : int;
  scheduler_seed : int;  (** derived via [Scheduler.Seed.derive] *)
  outcome : outcome;
}

type exp = {
  id : string;
  section : string;
  label : string;
  cells : cell list;  (** in matrix order: fault-major, seed-minor *)
  rendered : string;  (** the pretty row, exactly as printed *)
}

val exp_counts : exp -> counts
val exp_steps : exp -> int
