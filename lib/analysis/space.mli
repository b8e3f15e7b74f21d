(** Exhaustive state-space exploration.

    [Space] enumerates: a frontier BFS over
    every probed action and every task-enabled action, deduplicating
    through a hashed seen-set ({!Probe.t}[.hash_state]), recording the
    full labelled edge relation and the BFS parent tree — so every
    discovered state carries a shortest action path from the start
    state — and saying {e honestly} whether the enumeration finished:
    {!verdict} is [Exhausted] only when no transition was cut by the
    [max_states] budget.  The model checker ({!Mc}) and the
    graph-backed lint rules are built on top of this module.

    {b One core.}  The BFS bookkeeping — seen-set, parent tree, depths,
    sleep sets, edges, seeds, budget cuts — exists once, in
    {!explore_with}.  Only how a state's {!moves} are produced varies:
    {!explore} steps in place, {!Pspace} steps in its workers, and an
    orbit quotient ({!Symm.explore}) walks the state's orbit, checking
    equivariance, for canonical successors.  The core never canonizes
    by itself, so no uncertified canonizer can merge states.

    {b The seen-set} is an open-addressed table of discovery indices
    (linear probing, at most half full) slotted by the scrambled
    [hash_state], with every state's full hash kept beside it: a
    lookup runs the probe's [equal_state] only on a full-hash match,
    and allocates nothing.  Only the core's insertion grows the table.
    A missing or weak hash stays exact, only slower.  The moves already
    taken from a state are kept only under POR, the one case where a
    state is expanded more than once.

    {b Partial-order reduction.}  With [~por:true] the explorer runs a
    sleep-set reduction (Godefroid): when two task transitions commute
    at a state — both orders are defined and converge to the same state
    while preserving each other's enabledness — only one interleaving
    is expanded and the symmetric edge is {e slept}.  Sleep sets prune
    transitions, never states: the reachable state set is provably the
    same as the full search (a state reached again with a smaller sleep
    set is re-expanded), which the differential tests assert
    set-for-set.  Edge-complete analyses (shortest counterexamples,
    dead-transition detection) should run with POR off. *)

(** Did the exploration cover everything? [Truncated cap] means the
    [max_states] budget cut at least one transition: any "for all
    reachable states" claim downstream is only sampled. *)
type verdict = Exhausted | Truncated of int

val verdict_string : verdict -> string
(** ["exhausted"] or ["truncated@<cap>"]. *)

val pp_verdict : verdict Fmt.t

type 'a edge = {
  src : int;  (** index of the source state in {!type-t}[.states] *)
  dst : int;
  act : 'a;
  task : string option;
      (** name of the task that produced the edge; [None] for a probed
          (environment) action *)
}

type stats = {
  transitions : int;  (** edges recorded *)
  slept : int;  (** task transitions pruned by the sleep-set reduction *)
  cut : int;
      (** transitions (or seed states) dropped by the [max_states]
          budget — nonzero exactly when the verdict is [Truncated] *)
  dup_seeds : int;  (** probe seed states equal to an earlier state *)
}

type ('s, 'a) t = {
  states : 's array;  (** discovery (BFS) order; index 0 is the start *)
  edges : 'a edge array;  (** exploration order *)
  parent : (int * 'a) option array;
      (** BFS tree: [parent.(i)] is the predecessor state and the
          action that first discovered state [i]; [None] for the start
          state and for probe seed states *)
  depth : int array;
      (** BFS depth = length of the shortest discovered action path
          from the start ([max_int] on seed states unreached from the
          start) *)
  verdict : verdict;
  por : bool;
  stats : stats;
}

val explore : ?por:bool -> ('s, 'a) Afd_ioa.Automaton.t -> ('s, 'a) Probe.t -> ('s, 'a) t
(** Enumerate reachable states breadth-first from the automaton's start
    state (followed by the probe's deduplicated [seed_states]), taking
    every probed action and every task-enabled action, up to the
    probe's [max_states].  [por] (default [false]) switches the
    sleep-set reduction on.  Visit order with POR off is the plain
    list-scan BFS order (the differential tests keep that reference). *)

(** {1 The BFS core} *)

(** Read access to the core's seen-set for an expansion producer.  It
    does not change while the producer computes a round, so a parallel
    producer may read it from any domain then. *)
type 's view = {
  v_state : int -> 's;  (** state at a discovery index *)
  v_find : 's -> int -> int;  (** index of a state given with its hash, or [-1] *)
  v_expanded : int -> bool;  (** were the state's probe actions taken already? *)
}

(** One frontier state's expansion.  A successor {e code} is [-1] for
    a blocked step, the index of an already-seen successor, or [-2]
    for a fresh one, which the expansion parks until the core admits
    it through [x_admit] or cuts it at the budget.  The core asks for
    codes in the order it takes the moves, settling each before it
    asks for the next. *)
type ('s, 'a) expansion = {
  x_probe : int -> int;
      (** code of the [p]-th probe action; asked only on the state's
          first expansion *)
  x_names : string array;  (** enabled task moves, task-list order *)
  x_acts : 'a array;  (** their actions *)
  x_step : int -> int;  (** code of the [t]-th enabled move *)
  x_commute : int -> int -> bool;
      (** [x_commute u t]: do moves [u] and [t] commute at the state
          ({!commute})?  Asked only with POR on. *)
  x_admit : ('s -> int -> int) -> int;
      (** give the parked successor and its hash to the core's
          insertion function; returns the index it got *)
}

(** The moves of the state at a discovery index, with successors
    before any seen-set lookup. *)
type ('s, 'a) moves = {
  m_names : string array;  (** enabled task moves, task-list order *)
  m_acts : 'a array;  (** their actions: the edge labels *)
  m_probe : int -> 's option;  (** successor by the [p]-th probe action *)
  m_step : int -> 's option;  (** successor by the [t]-th enabled move *)
  m_commute : int -> int -> bool;  (** as [x_commute] *)
  m_commit : unit -> unit;
      (** run on the core's domain when the core takes the expansion:
          per-state results fold here, never from a worker *)
}

val stepped :
  ('s, 'a) Afd_ioa.Automaton.t -> ('s, 'a) Probe.t -> int -> 's -> ('s, 'a) moves
(** The automaton's own moves, each successor stepped when asked. *)

val sequential :
  (int -> 's -> ('s, 'a) moves) ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  's view ->
  int array ->
  int ->
  ('s, 'a) expansion
(** The in-place producer: [moves i s], resolved against the live
    seen-set. *)

val explore_with :
  ?por:bool ->
  (('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  's view ->
  int array ->
  int ->
  ('s, 'a) expansion) ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  ('s, 'a) t
(** [explore_with expansions aut probe] is the core: it seeds the
    queue with [aut]'s start state and the probe's seeds, calls
    [expansions aut probe view] once, then drains the queue one round
    at a time: the result is applied to each round's frontier
    (indices, queue order), and the core asks that for the [r]-th
    state's expansion right before processing it.  {!explore} is
    [explore_with (sequential (stepped aut probe))]. *)

val reachable : ('s, 'a) t -> 's list
(** The states in discovery order; the start state is first. *)

val path_actions : ('s, 'a) t -> int -> 'a list
(** Actions along the BFS-tree (shortest discovered) path from the
    start state to state [i], in execution order.  Raises
    [Invalid_argument] for a seed state not reached from the start. *)

val commute :
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  's ->
  ('s, 'a) Afd_ioa.Automaton.task * 'a ->
  ('s, 'a) Afd_ioa.Automaton.task * 'a ->
  bool
(** [commute aut probe s (t, a_t) (u, a_u)]: do the two task moves
    commute at [s]?  True when both are defined, each leaves the other
    enabled with the same action, and the two execution orders converge
    to probe-equal states (a computed diamond).  This is the
    independence relation the sleep-set reduction prunes with, and the
    [race-pair] lint rule reports the negation of. *)

val agree :
  equal_state:('s -> 's -> bool) ->
  equal_action:('a -> 'a -> bool) ->
  ('s, 'a) t ->
  ('s, 'a) t ->
  bool
(** Structural identity of two explorations: states pointwise equal in
    the same order, edge arrays equal (order, endpoints, action, task
    label), parent trees, depths, verdicts, POR flags, and stats all
    equal.  [Space] is the oracle: the parallel explorer ({!Pspace})
    must agree with it at any [jobs], which the differential tests and
    the PX benchmark rows assert. *)
