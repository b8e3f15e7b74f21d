(** Exploration-throughput rows (MX) for the experiment matrix.

    Each row explores a full net composition with the hashed {!Afd_analysis.Space}
    explorer, POR off and on, and renders only deterministic shape
    (states, edges, POR reduction factor, verdict).  The cell verdict
    is [Sat] iff POR preserved the state count and did not add edges. *)

val entries : unit -> Afd_runner.Matrix.entry list
(** [MX.heartbeat] and [MX.flood], both capped at 6000 states. *)
