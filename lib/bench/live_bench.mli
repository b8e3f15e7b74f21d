(** Liveness model-checking rows (ML) for the experiment matrix.

    Each row drives {!Afd_analysis.Mc}'s fairness-aware liveness pass
    end to end and renders only deterministic shape: two truthful
    pairings proved (safety and every [Stable] clause, over all fault
    patterns at n=3), the two liveness-broken detectors refuted with
    replay-confirmed lassos, and a raw SCC-condensation row. *)

val entries : unit -> Afd_runner.Matrix.entry list
(** [ML.omega], [ML.p], [ML.flipflop], [ML.silent], [ML.scc] — all
    capped at 6000 product states (well above the n=3 instances). *)
