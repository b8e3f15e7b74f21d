(** Compiled exploration of compositions.

    The same BFS + sleep-set machinery as {!Space.explore}, run over
    dense integer state/action ids instead of boxed values: each
    component's states are canonicalized through conflict-checked
    {!Pack} tables (hashes accelerate, exact equality decides), a
    product state is a fixed-width key of those ids, and the transition
    relation is defunctionalized into per-component step and
    enabledness tables keyed by (state id, action id), built lazily the
    first time each pair is visited and hit thereafter.

    Plain automata have no per-component factorization to exploit; they
    explore on the boxed {!Space} / {!Pspace} path ({!Subject} makes
    that choice).

    The decoded result is {e structurally identical} to the boxed
    explorer at any [jobs] {m \times} POR {m \times} budget: same states
    in the same discovery order, same edge array, parent tree, depths,
    verdict and stats — {!Space.agree} is the equality the
    differential tests ([test/test_cspace.ml]) and the CX benchmark
    rows assert.  DESIGN.md ("Packed state layout") gives the layout
    and the congruence argument.

    Profiling ([?profile]) reports wall-clock phase timings
    ([workers], [merge], [decode]) through the callback and never
    touches the returned {!Space.t}, so profiled runs stay
    byte-identical to unprofiled ones. *)

val explore_composition :
  ?por:bool ->
  ?jobs:int ->
  ?profile:(string -> float -> unit) ->
  'a Afd_ioa.Composition.t ->
  ('a Afd_ioa.Composition.state, 'a) Probe.t ->
  ('a Afd_ioa.Composition.state, 'a) Space.t
(** Product states are fixed-width keys of per-component interned ids,
    product steps are per-component table lookups, and the POR commute
    diamond closes over id tuples.

    There is no orbit quotient here: a global process permutation mixes
    the per-component slots the packed tables factor over, so quotiented
    explorations run on the boxed explorers ({!Space.explore}
    [~symmetry]).

    Precondition: the probe's [equal_state]/[hash_state] must agree
    with {!Afd_ioa.Composition.equal_state}/[hash_state] (pointwise
    structural) — which every catalog caller satisfies by construction
    ({!Subject} installs exactly that pair for composition entries).

    With [jobs > 1], frontier states are expanded by worker domains
    read-only against the frozen tables (shipping packed successor keys
    and dedup codes, exactly {!Pspace}'s frozen-prefix scheme); the
    sequential merge replays the boxed pop body, recomputing in place
    the rare states whose expansion touched a table miss. *)
