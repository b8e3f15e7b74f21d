(** Parallel exhaustive state-space exploration.

    [Pspace] is {!Space.explore} sharded across OCaml 5 domains.  It
    runs the same BFS core ({!Space.explore_with}) and differs only in
    how a frontier state's expansion is produced: each round's states
    are expanded concurrently on a {!Afd_runner.Pool.t} (work-stealing
    over the frontier array), and the core consumes the packed results
    in frontier order.  A worker computes a state's {!Space.moves}:
    stepped, or an orbit walk's ({!Symm.explore}).  The result is a plain {!Space.t} — downstream
    analyses ({!Live}, {!Mc}, lint rules, [path_actions]) run on it
    unchanged.

    {b Determinism.}  Workers only compute {e order-free} data: the
    successor state, its precomputed [Probe.hash_state] value, and a
    frozen-prefix dedup code per move, plus (with POR) the pairwise
    commute matrix of the enabled moves.  Everything order-dependent —
    seen-set insertion, edge recording, sleep-set bookkeeping,
    requeueing, [max_states] cuts — is the core's, in its own FIFO
    order, the same code the sequential explorer runs.  Because a FIFO
    queue pops states in global insertion order and the round
    decomposition preserves that order, the exploration is
    {e structurally identical} to the sequential one at any [jobs]:
    same state indices, same edge array (order included), same parent
    tree, depths, verdict, and stats.  The differential tests in
    [test/test_pspace.ml] assert this with {!Space.agree}.

    {b Dedup.}  Workers read the core's seen-set as a {e frozen
    prefix}: during a round's parallel phase it is immutable, so
    lookups are lock-free and exact for every state discovered before
    the round.  A successor not in the prefix is shipped back as
    "fresh" with its hash.  Each round then dedups those fresh
    candidates {e in parallel by hash stripe} ([hash land 7]): equal
    values hash equal, so the stripes resolve their equality classes
    independently, and a full hash match still requires exact
    equality.  The core meets each class first at the member the
    sequential explorer would have inserted: that member is fresh and
    is admitted (or cut at the budget), and later members hit its
    index — so numbering, edges and cut counts are untouched by the
    sharding.

    {b Crash safety.}  A probe, step or moves function that raises
    inside a worker propagates out of {!explore} (first failing
    frontier index, via {!Afd_runner.Pool}'s per-index capture, which
    is the state the sequential run fails at), the worker domains are
    shut down, and nothing leaks. *)

val explore :
  ?por:bool ->
  ?jobs:int ->
  ?profile:(string -> float -> unit) ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  ('s, 'a) Space.t
(** The boxed explorer at any domain count: [jobs <= 1] (the default)
    is {!Space.explore} itself, [jobs > 1] spreads the expansion work
    over that many domains.  The result is structurally identical to
    [Space.explore ~por aut probe] at any [jobs].  With [jobs > 1],
    [?profile] reports wall-clock phase timings: [workers] (parallel
    expansion), [stripe_dedup] (the striped candidate dedup) and
    [replay] (the core's bookkeeping, seeding and result assembly
    included); it never touches the result and stays silent at
    [jobs <= 1] and on a raise. *)

val explore_with :
  por:bool ->
  jobs:int ->
  profile:(string -> float -> unit) option ->
  (int -> 's -> ('s, 'a) Space.moves) ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  ('s, 'a) Space.t
(** {!explore} on given moves ([explore] passes {!Space.stepped}):
    [Space.explore_with (Space.sequential moves)] at [jobs <= 1].
    Above, [moves] runs in the workers and must not write shared
    state. *)
