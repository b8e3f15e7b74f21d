(** Compiled-exploration rows (CX) for the experiment matrix.

    Each row explores one of the MX net compositions with the compiled
    explorer ({!Afd_analysis.Cspace}: packed state keys,
    defunctionalized per-component step tables) at a fixed domain
    count (1, 2 or 4), POR off and POR on, and asserts the equality
    gate: the verdict is [Sat] iff both compiled explorations are
    structurally identical ({!Afd_analysis.Space.agree}) to the
    sequential boxed {!Afd_analysis.Space.explore} references.  The
    rendered detail is deterministic shape only — the verdict table is
    byte-identical at any [--jobs] — and the transitions explored feed
    the aggregate transitions/sec the perf gate tracks.

    Wall-clock speedup (compiled vs boxed states/s, and the large-cap
    packed run) is measured in the harness's perf section
    (bench/main.ml, CX timing), never in matrix rows. *)

val entries : unit -> Afd_runner.Matrix.entry list
(** [CX.heartbeat.jN] and [CX.flood.jN] for N in 1, 2, 4, all capped
    at 6000 states. *)
