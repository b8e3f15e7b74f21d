(** Orbit-reduction rows (SY) for the experiment matrix.

    Each row runs {!Check.sy_subject} on one CHK subject: the
    quotiented and unreduced model-checking runs must claim the same
    things, certification outcomes are pinned (a subject that must
    certify going breaking — or vice versa — fails the row), and the
    certified rows climb the {!Afd_analysis.Mc.parametric} cutoff
    ladder. *)

val entries : unit -> Afd_runner.Matrix.entry list
(** [SY.p], [SY.s], [SY.sigma], [SY.marabout] (certified — cutoff or
    refuted ladders), [SY.omega], [SY.flipflop] (breaking, named
    witnesses) — all capped at 6000 product states. *)
