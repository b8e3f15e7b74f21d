(** The E1-E7 experiment matrix of the bench harness, as a library.

    Exposed so the test suite can run the exact matrix the harness
    runs: the determinism tests compare its verdict tables across
    domain counts. *)

module Check = Check
(** Online/offline differential checking of the detector catalog (the
    [afd_sim check] subcommand's matrix). *)

module Explore_bench = Explore_bench
(** Exploration-throughput rows (MX) appended to {!matrix}. *)

module Live_bench = Live_bench
(** Liveness model-checking rows (ML) appended to {!matrix}. *)

module Churn_bench = Churn_bench
(** Churn-simulation rows (CN) appended to {!matrix}: the mega
    discrete-event engine under the seeded churn adversary. *)

module Symm_bench = Symm_bench
(** Orbit-reduction rows (SY) appended to {!matrix}: quotiented model
    checking differential against unreduced, plus cutoff ladders. *)

val verdict_str : Afd_core.Verdict.t -> string
(** ["sat"], ["VIOLATED: ..."] or ["undecided: ..."]. *)

val ok_str : ('a, string) result -> string
(** ["ok"] or ["FAIL: ..."]. *)

val matrix : unit -> Afd_runner.Matrix.entry list
(** The 25 entries of E1-E7, plus the MX exploration-throughput rows
    ({!Explore_bench}), the ML liveness model-checking rows
    ({!Live_bench}), the CN churn-simulation rows ({!Churn_bench}) and
    the SY orbit-reduction rows ({!Symm_bench}). *)
