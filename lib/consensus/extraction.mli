(** The Theorem 21 experiment: consensus (a bounded problem) has no
    representative AFD.

    The proof (Section 7.4) finds a quiescent execution of the
    composition of the witness automaton U with any candidate
    extraction algorithm A_P^D, then shows the extraction must keep
    producing valid detector outputs while receiving no further
    information — so two fault patterns that diverge only after
    quiescence are indistinguishable to it, contradicting the detector
    spec on one of them.

    Here the argument is made executable for {e local deterministic}
    extraction candidates: a candidate maps a location's observation
    history (its proposals and decisions — everything a solution to
    consensus shows it) to a detector output.  We run consensus to
    quiescence under two fault patterns that agree before quiescence
    and differ after, graft the candidate's outputs into both runs, and
    check the target AFD spec: because the observation histories
    coincide, the grafted output streams coincide, and at most one run
    can satisfy the spec. *)

open Afd_ioa
open Afd_core

type observation =
  | Oproposed of bool  (** the location's own proposal *)
  | Odecided of bool  (** the location's own decision *)

type candidate = Loc.t -> observation list -> Loc.Set.t option
(** A local deterministic extraction strategy: current (set-valued)
    detector output at a location from that location's observation
    history; [None] = no output yet. *)

val echo_decision : candidate
(** Suspect nobody until the location decides, then suspect everyone
    whose... — concretely: output [{}] before deciding and keep
    outputting [{}] after (it has no way to learn more).  The simplest
    honest candidate. *)

type result = {
  observations_equal : bool;
      (** the live observer's histories coincide across the two runs *)
  verdict_a : Verdict.t;  (** target spec on the grafted pattern-A run *)
  verdict_b : Verdict.t;
  refuted : bool;  (** at least one verdict is not [Sat] *)
}

val run :
  n:int ->
  target:(Loc.Set.t Afd.spec) ->
  candidate:candidate ->
  late_crash:Loc.t ->
  seed:int ->
  steps:int ->
  result
(** Run flooding consensus (f = 1) to quiescence twice: pattern A
    crashes nobody; pattern B crashes [late_crash] {e after} every
    location has decided and all channels have drained.  Graft the
    candidate's outputs (sampled after every observation and repeated
    at the end — the limit extension) into both consensus traces and
    check [target] on both. *)
