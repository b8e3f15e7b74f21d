(** Exhaustive safety {e and liveness} checking of AFD specs on small
    closed systems.

    The paper's theorems quantify over {e all} fair executions; the
    bench matrix and [afd_sim check] only sample randomly scheduled
    prefixes.  On small instances this module closes the gap: it builds
    the product of a closed system automaton (detector composed with
    the crash automaton — every action is an ['o Fd_event.t]) with the
    spec's {!Afd_prop.Prop} {e safety} clauses, each carried as its own
    runtime state ({!Afd_prop.Prop.step}), explores
    it exhaustively with {!Space}, and reports each violation as a
    shortest-path {!Afd_prop.Counterexample}.  When the explorer says
    [Exhausted] and no violation exists, the safety clauses hold in
    {e every} reachable state — a proof over all schedules and all
    fault patterns in the crashable set, not a sample.

    {b What is checked.}  Every safety clause is stepped with
    {!Afd_prop.Prop.step} along every edge of the product graph, the
    same step the online {!Afd_prop.Monitor} takes; a
    {!Afd_prop.Prop.Violation} ([Always] checks, [Fold] steps) latches
    the edge's destination as a violating sink, so its BFS depth is the
    minimal violating prefix.  [Fold] judges ({!Afd_prop.Prop.judge})
    are evaluated in every reachable product state (their reasons stay
    lazy, and only a reported violation's is formatted); a [J_violated]
    judgement is reported only when it is {e inescapable} — no path
    leads back to a non-violated state — which under an [Exhausted]
    verdict means every infinite extension stays violated.

    {b Liveness.}  [Stable] (eventually) clauses are decided through
    {!Live}: the clause is {e refuted} when some reachable state has a
    non-[Sat] judge and either a weakly fair cycle through it (the
    violation persists along an infinite fair execution) or is a
    {e fair stop} (no fair task enabled — a maximal fair execution may
    end with the "eventually" still pending).  The witness is a lasso
    (stem + cycle), replay-confirmed through the online
    {!Afd_prop.Monitor} after several unrollings.  The clause is
    {e proved} when no such pivot exists {e and} the exploration is
    [Exhausted] — refutations are positive facts and survive
    truncation, proofs do not.  Under [por] the sleep-set reduction
    preserves states but not cycles, so liveness is skipped entirely.

    {b Product state identity.}  Two product states are merged when
    their detector+crash pair states, crashed-so-far sets, trace
    lengths capped at 8 and clause states ({!Afd_prop.Prop.equal}: the
    [Fold] accumulators) agree; pair states and accumulators compare
    structurally.  When [Stable] clauses are in scope (and [por] is
    off) the identity is enriched with [last_output], its payloads
    compared structurally ({!Afd_core.Afd}'s payload contract), so
    that every Stable judge is a function of the merged state.  The trace summary keeps no output
    counts: [validity.liveness] reads only whether a live location has
    a last output, which [last_output]'s key set already records.  A
    clause comparing [len] against a bound above 8 needs that cap
    raised; a clause that counts outputs folds its own accumulator,
    which joins the identity.

    The seen-set hash reads every field this equality reads: the pair
    state's {!Afd_ioa.Composition.hash_pair}, the capped length, the
    crashed set, every clause state's {!Afd_prop.Prop.hash} (a [Fold]
    accumulator's structural hash) and, with liveness in scope, every
    [last_output] entry — its location and the [Hashtbl.hash] of its
    payload.  Unreduced and quotient runs share this one identity; a
    fold's [fcmp] only orders accumulators when a quotient picks an
    orbit's minimum ({!Afd_prop.Prop.compare}), and is 0 exactly where
    the identity merges ({!Afd_prop.Prop.fold}).

    {b Stages.}  {!check_spec} composes three stages over one closed
    system: the detector paired with the crash automaton
    ({!Afd_ioa.Composition.pair}).  {e Explore} builds the clause
    runtime (one {!Afd_prop.Prop.clause} slot per safety clause, plus
    the [Stable] judges), the product and its identity.  With symmetry
    it lifts the declared action to product states and explores the
    orbit quotient with {!Symm.explore}, which certifies as it
    explores; on a break (or when certification is unavailable) it
    explores unreduced with {!Space.explore} instead.  The two runs
    differ only in that orbit walk and in the liveness enrichment of
    the identity.  It hands off one record: the product, the clause
    runtime, the {!Space.t}, how symmetry resolved (certificate,
    breaking witness or fallback) and, on a certificate, the lifted
    descriptor.  {e Safety} reads only that record: [Fold] judges,
    inescapability, one candidate per clause, quotient path lifting and
    monitor replay.  {e Liveness} runs pivot search and lasso replay on
    the same graph.  The hand-off is where a packed product explorer
    plugs in (it only has to decode to {!Space.t}), and a closure
    checker steps the same {!Afd_prop.Prop.clause} states along its own
    automata.

    {b Replay stays independent.}  The monitor replay behind
    [confirmed] and [l_confirmed] steps the same {!Afd_prop.Prop.step}
    as the product, but re-derives each violation from the start along
    the extracted (or lifted) path, with a fresh summary and no state
    merging.  Merging (the length cap, structural identity) and lifting
    are what it checks. *)

open Afd_ioa
open Afd_prop

type 'o violation = {
  clause : string;
  reason : string;
  kind : [ `Edge | `Judgement ];
      (** [`Edge]: a clause latched on a transition.  [`Judgement]: an
          inescapable [Fold]-judge violation (claimed only under an
          [Exhausted] verdict). *)
  depth : int;  (** length of the violating event prefix — minimal, by BFS *)
  counterexample : 'o Counterexample.t;  (** built from the shortest path *)
  confirmed : bool;
      (** the path was replayed through {!Monitor.replay} and the
          monitor's verdict is [Violated] — an end-to-end cross-check
          that the explorer and the monitor agree *)
}

type 'o lasso = {
  l_clause : string;  (** the refuted [Stable] clause *)
  l_reason : string;  (** the judge's reason at the pivot *)
  l_kind : [ `Cycle | `Stop ];
      (** [`Cycle]: a weakly fair cycle keeps the judge non-[Sat]
          forever.  [`Stop]: a fair stop — no fair task enabled, the
          "eventually" never happens (empty [l_cycle]). *)
  l_depth : int;  (** BFS depth of the pivot — the stem is shortest *)
  l_stem : 'o Fd_event.t list;  (** seed-to-pivot event path *)
  l_cycle : 'o Fd_event.t list;
      (** closed fair walk through the pivot; for every fair task it
          either fires it or visits a state where it is disabled *)
  l_confirmed : bool;
      (** replaying stem + k unrollings of the cycle (k = 1, 2, 3)
          through {!Monitor} leaves this clause's verdict non-[Sat]
          every time *)
}

(** How symmetry reduction went for a run.  [Sym_quotient] carries the
    equivariance certificate: the exploration ran on orbit
    representatives, and the safety verdict transfers to the full
    system (see the soundness argument in {!Symm}).  [Sym_breaking]
    and [Sym_fallback] runs are plain unreduced runs — requesting
    symmetry never makes a verdict weaker, only the state count
    smaller. *)
type sym_status =
  | Sym_off  (** symmetry not requested *)
  | Sym_quotient of Symm.certificate
      (** certified equivariant; exploration was orbit-quotiented *)
  | Sym_breaking of Symm.witness
      (** a concrete equivariance failure; ran unreduced *)
  | Sym_fallback of string
      (** certification unavailable (missing [perm_out]/[fperm]
          transport, n out of range, ...); ran unreduced *)

(** A permutation action on detector states with a total order.  The
    pair identity is structural, so [ss_cmp x y = 0] must hold only for
    structurally equal states: true of location sets (one word each,
    {!Loc.Set}) and of rigid components, not of a [Loc.Map] permuted by
    rebuilding. *)
type 's state_symmetry = {
  ss_perm : (int -> int) -> 's -> 's;
  ss_cmp : 's -> 's -> int;  (** [ss_cmp x y = 0] iff [x = y] *)
}

val sym_set : Loc.Set.t state_symmetry
(** The action on suspect-set states: [Loc.Set.map]. *)

val sym_pair : 'a state_symmetry -> 'b state_symmetry -> ('a * 'b) state_symmetry

val sym_rigid : 'a state_symmetry
(** The trivial action, for identity-independent state components
    (flags, counters, scripted noise) — structural order and hash.
    Declaring a genuinely process-indexed component rigid yields a
    breaking witness, never an unsound quotient. *)

type 'o outcome = {
  verdict : Space.verdict;  (** completeness of the product exploration *)
  states : int;  (** product states discovered *)
  transitions : int;
  safety_clauses : string list;  (** safety clauses model-checked *)
  liveness_clauses : string list;  (** [Stable] clauses in the formula *)
  liveness_proved : string list;
      (** [Stable] clauses with no fair violating cycle and no
          violating fair stop, under an [Exhausted] unreduced
          exploration: they hold on every fair execution *)
  liveness_skipped : string list;
      (** [Stable] clauses left undecided — exploration truncated,
          [por] on, or symmetry quotient engaged (orbit merging
          preserves states, not fair cycles) *)
  violations : 'o violation list;
      (** at most one per safety clause (the shallowest), ascending depth *)
  lassos : 'o lasso list;  (** one per refuted [Stable] clause *)
  safety_proved : bool;
      (** [verdict = Exhausted] and no safety violation *)
  proved : bool;
      (** [safety_proved] and every [Stable] clause proved: the whole
          formula holds on every fair execution of the system *)
  por : bool;
  sym : sym_status;
  stats : Space.stats;
}

val check_spec :
  ?max_states:int ->
  ?por:bool ->
  ?timings:(string * float) list ref ->
  ?crashable:Loc.Set.t ->
  ?symmetry:'s state_symmetry ->
  n:int ->
  'o Afd_core.Afd.spec ->
  detector:('s, 'o Fd_event.t) Automaton.t ->
  ('o outcome, string) result
(** Pair [detector] with the crash automaton over [crashable]
    (default: the full universe, i.e. {e all} fault patterns) and
    model-check the spec's formula against it, exploring at most
    [max_states] (default 20 000) product states.  [Error], naming the
    bound, when [n] lies outside [1..Loc.max_locations].

    [por] (default [false]) enables the sleep-set reduction; leave it
    off when shortest counterexamples or liveness verdicts matter
    (liveness is skipped under POR).  [timings], when given,
    gets per-phase wall-clock seconds appended, in order: [symmetry]
    (when [symmetry] is given and the spec has [perm_out]: the
    state-independent checks, plus the quotient exploration when it
    breaks), [explore] (the certifying quotient exploration, or the
    unreduced one), [clause_eval] and [lasso].  It never touches the
    outcome.

    [symmetry], when given, is the permutation action on the
    {e detector's} state.  The pair state then permutes componentwise
    (the crash set by {!sym_set}), actions by the spec's [perm_out],
    and the explore stage explores orbit representatives, certifying
    the lifted descriptor as it goes; a break falls back to an
    unreduced run of the same pair that carries the witness.
    Counterexamples found in the quotient are lifted back to genuine
    runs of the original system (and replay-confirmed as always);
    liveness is skipped, as under [por].  A spec without [perm_out]
    runs unreduced with [sym = Sym_fallback]. *)

(** {1 The explored product}

    The explore stage's graphs: the orbit representatives, exposed so
    tests can check them against {!Symm.canonizer_w}, and the unreduced
    graph the liveness stage condenses, so tests can check {!Live}
    against a reference on it. *)

type ('s, 'o) product_state
(** A state of the product of a system with a formula's clause
    runtime. *)

val unreduced_view :
  n:int ->
  'o Afd_core.Afd.spec ->
  detector:('s, 'o Fd_event.t) Automaton.t ->
  ( (('s * Loc.Set.t, 'o) product_state, 'o Fd_event.t) Automaton.t
    * (('s * Loc.Set.t, 'o) product_state, 'o Fd_event.t) Space.t
    * (('s * Loc.Set.t, 'o) product_state, 'o Fd_event.t) Probe.t,
    string )
  result
(** The product {!check_spec} builds without symmetry, its unreduced
    exploration (every location crashable, default budget, no POR) —
    the graph the liveness stage condenses — and the probe that
    exploration used, whose [equal_state] and [hash_state] are the
    product identity.  [Error] when [n] is out of range. *)

type ('s, 'o) quotient_view = {
  qv_product : (('s, 'o) product_state, 'o Fd_event.t) Automaton.t;
  qv_states : ('s, 'o) product_state array;
      (** the quotient exploration's representatives, discovery order *)
  qv_symmetry : (('s, 'o) product_state, 'o Fd_event.t) Probe.symmetry;
      (** the system's symmetry lifted to product states *)
}

val quotient_view :
  symmetry:'s state_symmetry ->
  n:int ->
  'o Afd_core.Afd.spec ->
  detector:('s, 'o Fd_event.t) Automaton.t ->
  (('s * Loc.Set.t, 'o) quotient_view, string) result
(** Build the product {!check_spec} builds with [symmetry] and explore
    its orbit quotient as {!check_spec} does (every location crashable,
    default budget, no POR).  [Error] when [n] is out of range, the
    spec has no [perm_out], or the product does not certify. *)

(** {1 Parametric cutoff search}

    Verify a certified-symmetric subject at n0, n0+1, ... and report a
    parametric verdict with the orbit-vs-state growth curve.  In the
    spirit of parameterized cutoff results (Emerson–Namjoshi; Tran,
    Konnov, Widder's failure-detector case study): a run of
    consecutively proved instances is reported as a {e cutoff
    candidate} — explicitly a candidate, never a proof for all n. *)

type point = {
  pt_n : int;
  pt_orbits : int;  (** quotient states explored at this n *)
  pt_transitions : int;
  pt_verdict : Space.verdict;
  pt_proved : bool;  (** safety proved at this n *)
  pt_violated : string list;  (** violated clauses, when any *)
  pt_raw_states : int option;
      (** unreduced state count at the same n when the unreduced
          exploration exhausts within budget; [None] when it truncates
          at this n or at a smaller n (larger instances only grow, so
          the ladder stops counting unreduced rungs after the first
          truncation) — the quotient reached an instance brute force
          cannot.  An unreduced rung is an explore-only count
          ({!Space.count}) that stops at the first budget cut: the
          same product, identity and budget as the plain {!check_spec}
          run, hence the same figure, without its safety or liveness
          stage. *)
}

type parametric_verdict =
  | Cutoff_candidate of { n0 : int; upto : int }
      (** >= 3 consecutive instances proved from [n0]; candidate only *)
  | Proved_upto of int  (** some instances proved, fewer than the window *)
  | Refuted_at of int  (** a violation at this instance size *)
  | Unverified of string  (** no footing: breaking, uncertified, or budget *)

type parametric = {
  par_points : point list;  (** ascending n, one per instance attempted *)
  par_verdict : parametric_verdict;
  par_sym : sym_status;  (** status at the last instance attempted *)
}

val parametric :
  ?max_states:int ->
  ?ns:int list ->
  symmetry:'s state_symmetry ->
  'o Afd_core.Afd.spec ->
  detector:(int -> ('s, 'o Fd_event.t) Automaton.t) ->
  parametric
(** Run {!check_spec} with [symmetry] at each [n] in [ns] (default
    [2; 3; 4; 5]).  [ns] must be a non-empty run of consecutive
    ascending sizes ([n0; n0+1; ...]); any other list is [Unverified],
    naming the list, with no points and nothing run.  The ladder stops
    at the first refutation, the first instance whose symmetry
    certification fails (per-n statuses differ: a k-set detector can
    be equivariant at n = k and breaking above), or the first budget
    truncation.  Each quotiented point also counts the unreduced
    instance's states to record the orbit-vs-state curve
    ([pt_raw_states]): the count runs only the explore stage, and stops
    at the first budget cut.  Once one unreduced instance truncates,
    the larger ones are not counted and report [None]. *)

val pp_parametric : Format.formatter -> parametric -> unit
val parametric_to_json : parametric -> string

val pp_sym_status : Format.formatter -> sym_status -> unit

val outcome_to_json :
  ?timings:(string * float) list -> pp_out:'o Fmt.t -> 'o outcome -> string
(** One JSON object: verdict, proved, state/transition counts, clause
    lists, POR stats and the violations with their counterexamples.
    [timings] (default empty) appends a ["profile"] object of per-phase
    seconds; a ["sym"] object appears only when symmetry was requested
    ([sym <> Sym_off]) — so default output is byte-identical to earlier
    versions. *)
