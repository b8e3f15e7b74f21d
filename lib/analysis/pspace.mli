(** Parallel exhaustive state-space exploration.

    [Pspace] is {!Space.explore} sharded across OCaml 5 domains: the
    BFS frontier is processed in rounds, each round's states are
    expanded concurrently on a {!Afd_runner.Pool.t} (work-stealing over
    the frontier array), and a sequential merge folds the workers'
    packed results back in frontier order.  The result is a plain
    {!Space.t} — downstream analyses ({!Live}, {!Mc}, lint rules,
    [path_actions]) run on it unchanged.

    {b Determinism.}  Workers only compute {e order-free} data: the raw
    successor state, its precomputed [Probe.hash_state] value, and a
    frozen-prefix dedup code per move, plus (with POR) the pairwise
    commute matrix of the enabled moves.  Everything order-dependent —
    seen-set insertion, within-round dedup, edge recording, sleep-set
    bookkeeping, requeueing, [max_states] cuts — happens in the
    sequential merge, which replays {!Space.explore}'s own loop in its
    own FIFO order.  Because a FIFO queue pops states in global
    insertion order and the round decomposition preserves that order,
    the exploration is {e structurally identical} to the sequential
    one at any [jobs]: same state indices, same edge array (order
    included), same parent tree, depths, verdict, and stats.  The
    differential tests in [test/test_pspace.ml] assert this field for
    field across the subject catalog, and {!Space.agree} is the
    assertion the benchmark equality gate reuses.

    {b Dedup scheme.}  The seen-set is sharded by hash stripe
    ([hash land (stripes - 1)], 8 stripes); workers read it as a
    {e frozen prefix}: during a round's parallel phase the table is
    immutable (merge only writes between phases, and the pool's
    wake/idle barrier orders those writes before the workers' reads),
    so lookups are lock-free and exact for every state discovered
    before the round.  A successor not in the prefix is shipped back
    as "fresh" with its hash.  Each round then dedups those fresh
    candidates {e in parallel by stripe}: equality can only hold
    within a stripe (equal values hash equal), so the stripes resolve
    their equality classes independently — conflict-checked, a full
    hash match still requires exact equality, unequal comparisons are
    counted per stripe.  The sequential replay resolves each class at
    its first actually-taken member: that member allocates the new
    index (or takes the budget cut) exactly where the sequential merge
    would have inserted it, and later members hit it — so numbering,
    edges and cut counts are untouched by the sharding.

    {b Crash safety.}  A probe or step function that raises inside a
    worker propagates out of {!explore} (first failing frontier index,
    via {!Afd_runner.Pool}'s per-index capture), the worker domains
    are shut down, and nothing leaks. *)

(** Per-exploration accounting of the striped merge, reported through
    the [?merge_stats] callback — never part of the returned
    {!Space.t}, so instrumented runs stay structurally identical. *)
type merge_stats = {
  ms_rounds : int;  (** BFS rounds (parallel phases) executed. *)
  ms_stripes : int;  (** Stripe count (a constant, for reporting). *)
  ms_candidates : int array;
      (** Worker-reported fresh successors deduped, per stripe. *)
  ms_classes : int array;
      (** Distinct equality classes among them, per stripe. *)
  ms_conflicts : int array;
      (** Hash-equal-but-value-unequal comparisons, per stripe — the
          conflict check engaging. *)
}

val explore :
  ?por:bool ->
  ?symmetry:('s -> 's) ->
  ?jobs:int ->
  ?profile:(string -> float -> unit) ->
  ?merge_stats:(merge_stats -> unit) ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  ('s, 'a) Space.t
(** The boxed explorer at any domain count: [jobs <= 1] (the default)
    is {!Space.explore} itself, [jobs > 1] spreads the expansion work
    over that many domains.  The result is structurally identical to
    [Space.explore ~por aut probe] at any [jobs].  With [jobs > 1],
    [?profile] reports wall-clock phase timings ([workers],
    [stripe_dedup], [replay]) and [?merge_stats] the striped-merge
    accounting; neither touches the result, and both stay silent at
    [jobs <= 1]. *)

val explore_pool :
  ?por:bool ->
  ?symmetry:('s -> 's) ->
  ?profile:(string -> float -> unit) ->
  ?merge_stats:(merge_stats -> unit) ->
  Afd_runner.Pool.t ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  ('s, 'a) Space.t
(** [explore] on a caller-managed pool, so one set of worker domains
    amortises over many explorations (the benchmark matrix and the
    engine's catalog sweep).  The pool is left usable. *)
