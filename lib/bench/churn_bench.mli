(** Churn-simulation rows (CN) for the experiment matrix.

    Each row drives the {!Afd_mega} discrete-event engine end to end —
    a universe of thousands of processes under the seeded churn
    adversary — and renders only its deterministic shape: events
    processed, final membership, fault/detection counts, latency
    percentiles in virtual ticks and the sampled-monitor verdict.  The
    cell's [steps] is the number of events processed.  Wall-clock
    figures never appear in matrix rows; the [churn] workload of
    [benchmark/main.exe] times the engine. *)

val outcome : Afd_mega.Engine.report -> Afd_runner.Metrics.outcome
(** The matrix outcome of one engine run: [Sat] iff {!Afd_mega.Engine.ok},
    else the monitor's violation or "faults injected but none
    detected"; [steps] = events processed, [detail] = the
    deterministic summary, [clauses] = the monitor's per-clause
    verdicts.  Shared by the CN rows and [afd_sim churn --json]. *)

val entries : unit -> Afd_runner.Matrix.entry list
(** [CN.hb-ring], [CN.hb-grid], [CN.vcube-hypercube] and
    [CN.vcube-quiet]: both catalog detectors, with and without churn. *)
