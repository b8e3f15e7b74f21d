(** Parallel-exploration rows (PX) for the experiment matrix.

    Each row explores one of the MX net compositions with the parallel
    explorer ({!Afd_analysis.Pspace}) at a fixed domain count (1, 2, 4
    or 8), POR off and POR on, and asserts the equality gate: the
    verdict is [Sat] iff both parallel explorations are structurally
    identical ({!Afd_analysis.Space.agree}) to the sequential
    {!Afd_analysis.Space.explore} references.  The rendered detail is
    deterministic shape only: the verdict table is byte-identical at
    any [--jobs].  Nothing times these explorations. *)

val entries : unit -> Afd_runner.Matrix.entry list
(** [PX.heartbeat.jN] and [PX.flood.jN] for N in 1, 2, 4, 8, all
    capped at 6000 states. *)
