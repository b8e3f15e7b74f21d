(** Exploration-throughput rows (MX) for the experiment matrix.

    Each row explores a full net composition with the hashed {!Afd_analysis.Space}
    explorer, POR off and on, and renders only deterministic shape
    (states, edges, POR reduction factor, verdict).  The cell verdict
    is [Sat] iff POR preserved the state count and did not add edges. *)

val entries : unit -> Afd_runner.Matrix.entry list
(** [MX.heartbeat] and [MX.flood], both capped at 6000 states. *)

val heartbeat_acts : Afd_system.Act.t list
(** The probe actions of the heartbeat rows — shared with the PX rows
    ({!Pspace_bench}) so both explore the identical state space. *)

val flood_acts : Afd_system.Act.t list
(** The probe actions of the flood-consensus rows — shared with the PX
    rows ({!Pspace_bench}). *)
