(** Online/offline differential checking of the detector catalog.

    Every subject runs the same seeded schedule twice — streaming
    events into the spec's compiled monitor (nothing retained beyond
    the monitor's window) and replaying the materialized trace through
    the offline {!Afd_core.Afd.check} — and each matrix cell's verdict is the
    {e meta}-verdict: [Sat] iff the two verdicts agree structurally
    {e and} the subject's expectation (sat for truthful pairings,
    violated for the deliberately broken ones) is met.  The raw online
    verdict, per-clause verdicts and the counterexample prefix index
    are recorded in the cell outcome and surface in verdict tables and
    BENCH.json. *)

open Afd_ioa
open Afd_core

type subject =
  | S : {
      id : string;  (** stable matrix id, e.g. ["CHK.p"] *)
      label : string;
      n : int;  (** default instance size; matrix and MC rows run here *)
      steps : int;
      crash_at : (int * Loc.t) list;
      detector : int -> ('s, 'o Fd_event.t) Automaton.t;
          (** instance builder — the parametric ladder ({!sy_subject})
              re-instantiates it at growing sizes *)
      symm : 's Afd_analysis.Mc.state_symmetry option;
          (** declared process-permutation action on detector states;
              a wrong declaration yields a breaking witness and an
              unreduced run, never an unsound quotient *)
      spec : 'o Afd.spec;
      expect_violated : bool;
          (** deliberate detector/spec mismatch: the cell demands a
              [Violated] verdict (with its counterexample index)
              instead of [Sat] *)
    }
      -> subject

val id : subject -> string
val expect_violated : subject -> bool

val subjects : subject list
(** The 11 catalog specs run against their truthful automata, plus two
    deliberate mismatches ([CHK.lying-p], [CHK.marabout]). *)

type outcome = {
  online : Verdict.t;  (** the streaming monitor's verdict *)
  offline : Verdict.t;  (** full-trace {!Afd_core.Afd.check} *)
  clauses : (string * Verdict.t) list;
  counterexample : int option;
      (** minimal violating prefix index, when violated *)
  events : int;  (** FD events the run produced *)
}

val verdict_equal : Verdict.t -> Verdict.t -> bool
(** Structural equality, reasons included. *)

val run_subject : ?window:int -> seed:int -> subject -> outcome
(** Run one subject under one seed: online (with [record_fired:false]
    — no trace is materialized on that run), then offline on the
    regenerated trace. *)

val section : string

val entry : ?window:int -> ?seeds:int -> subject -> Afd_runner.Matrix.entry
(** A matrix row for one subject; [seeds] defaults to 3. *)

val matrix : ?window:int -> ?seeds:int -> unit -> Afd_runner.Matrix.entry list
(** One row per {!subjects} entry. *)

(** {1 Exhaustive model checking}

    The same subjects, but instead of sampling seeded schedules each
    detector is composed with the crash automaton and its spec's
    clauses — safety {e and} [Stable] liveness — are model-checked over
    {e every} reachable state ({!Afd_analysis.Mc}).  Where a matrix
    cell says "agreed on 3 seeds", an [mc_result] with
    [mc_proved = true] says "holds on all fair schedules and fault
    patterns of this instance". *)

val liveness_subjects : subject list
(** [CHK.flipflop] (FD-FlipFlop vs Ω: the elected leader alternates
    forever) and [CHK.silent] (FD-Silent vs P: only location 0 ever
    outputs).  Broken only in the limit — every finite prefix is safe,
    so the seeded matrix cannot catch them; {!mc_all} refutes them
    with fair-cycle lassos (and therefore omits them under [por],
    which disables the fair-cycle pass). *)

type mc_violation = {
  clause : string;
  vkind : string;  (** ["edge"] or ["judgement"] *)
  depth : int;  (** minimal violating prefix length (BFS-shortest) *)
  index : int;  (** counterexample prefix index *)
  window : string list;  (** rendered trailing events of the witness *)
  reason : string;
  confirmed : bool;  (** witness replayed through {!Afd_prop.Monitor.replay} *)
}

type mc_lasso = {
  lclause : string;  (** the refuted [Stable] clause *)
  lkind : string;  (** ["fair-cycle"] or ["fair-stop"] *)
  ldepth : int;  (** BFS depth of the lasso pivot *)
  lstem : int;  (** stem length, in events *)
  lcycle : int;  (** cycle length, in events (0 for a fair stop) *)
  lreason : string;
  lconfirmed : bool;
      (** stem + k unrollings (k = 1, 2, 3) replayed through the
          monitor leave the clause non-[Sat] every time *)
}

type mc_result = {
  mc_id : string;
  mc_label : string;
  mc_expect_violated : bool;
  mc_verdict : string;  (** {!Afd_analysis.Space.verdict_string} *)
  mc_exhaustive : bool;
  mc_states : int;
  mc_transitions : int;
  mc_proved : bool;  (** safety and liveness, over all fair executions *)
  mc_safety : string list;  (** safety clauses model-checked *)
  mc_liveness_proved : string list;
      (** [Stable] clauses with no fair violating cycle or stop *)
  mc_liveness_skipped : string list;
      (** [Stable] clauses left undecided (truncated or POR) *)
  mc_violations : mc_violation list;
  mc_lassos : mc_lasso list;  (** one per refuted [Stable] clause *)
  mc_ok : bool;
      (** the meta-verdict: exhaustive, and proved (truthful pairing —
          safety only under [por], where liveness is out of scope) or
          confirmed-violated / confirmed-lassoed (broken pairing) *)
  mc_profile : (string * float) list;
      (** per-phase wall-clock seconds when profiled, else empty *)
  mc_json : string;  (** the underlying {!Afd_analysis.Mc.outcome_to_json} *)
}

val mc_subject :
  ?max_states:int ->
  ?por:bool ->
  ?profile:bool ->
  subject ->
  (mc_result, string) result
(** Model-check one subject; [Error] when {!Afd_analysis.Mc.check_spec}
    refuses its instance size.  [profile] (default
    [false]) collects per-phase timings into the JSON's ["profile"]
    field (and only then — unprofiled JSON is unchanged). *)

val mc_all :
  ?max_states:int ->
  ?por:bool ->
  ?profile:bool ->
  unit ->
  mc_result list
(** All {!subjects}, plus {!liveness_subjects} when [por] is off; a
    subject {!mc_subject} refuses yields a failing row
    ([mc_ok = false], [mc_verdict = "error"]) instead of an
    exception. *)

(** {1 Orbit-quotiented re-verification}

    Each subject is model-checked twice — unreduced and with its
    declared {!Afd_analysis.Mc.state_symmetry} — and the two runs must
    {e claim} the same things: identical safety verdict and identical
    violated-clause sets, every witness replay-confirmed.
    Certified-symmetric subjects additionally climb the
    {!Afd_analysis.Mc.parametric} ladder, re-instantiating the
    detector at growing sizes. *)

type sy_result = {
  sy_id : string;
  sy_label : string;
  sy_status : string;
      (** ["certified"], ["breaking"], ["fallback"] or ["error"] *)
  sy_detail : string;
      (** certificate summary, breaking witness or fallback reason *)
  sy_states : int;  (** product states with symmetry requested *)
  sy_raw_states : int;  (** unreduced product states *)
  sy_agree : bool;
      (** same safety verdict and violated-clause/confirmed sets as the
          unreduced run (depths and windows are {e not} compared: a
          quotient-shortest path lifts to a genuine but not necessarily
          shortest run) *)
  sy_parametric : Afd_analysis.Mc.parametric option;
      (** the cutoff ladder, for certified subjects only *)
  sy_ok : bool;
      (** [sy_agree], both runs exhaustive, and the ladder verdict
          matches the expectation (refuted iff [expect_violated]) *)
  sy_json : string;
}

val sy_subject :
  ?max_states:int -> ?ns:int list -> subject -> (sy_result, string) result
(** [Error] on an out-of-range instance size or a subject with no
    declared symmetry.
    [ns] (default [2; 3; 4; 5]) are the parametric instance sizes. *)

val sy_all : ?max_states:int -> ?ns:int list -> unit -> sy_result list
(** All {!subjects} plus {!liveness_subjects}; errors become failing
    rows ([sy_ok = false], [sy_status = "error"]). *)
