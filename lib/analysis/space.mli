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
    {!explore} steps in place ({!stepped}), and an orbit quotient
    ({!Symm.explore}) walks the state's orbit, checking equivariance,
    for canonical successors.  {!count} runs the same core
    in a count-only mode that records no edge and stops at the first
    budget cut.  The core never canonizes by itself, so
    no uncertified canonizer can merge states.

    {b The seen-set} is an open-addressed table of discovery indices
    (linear probing, at most half full) slotted by the scrambled
    [hash_state], with every state's full hash kept beside it: a
    lookup runs the probe's [equal_state] only on a full-hash match,
    and allocates nothing.  A missing or weak hash stays exact, only
    slower.  The moves already taken from a state are kept only under
    POR, the one case where a state is expanded more than once.  Every
    edge of one task shares a single [Some name] label.

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

(** The moves of the state at a discovery index, with successors
    before any seen-set lookup. *)
type ('s, 'a) moves = {
  m_tasks : int array;
      (** enabled task moves, as indices into the explored automaton's
          [tasks], in task-list order *)
  m_acts : 'a array;  (** their actions: the edge labels *)
  m_probe : int -> 's option;  (** successor by the [p]-th probe action *)
  m_step : int -> 's option;  (** successor by the [t]-th enabled move *)
  m_commute : int -> int -> bool;
      (** [m_commute u t]: do moves [u] and [t] commute at the state
          ({!commute})?  Asked only with POR on. *)
}

val stepped :
  ('s, 'a) Afd_ioa.Automaton.t -> ('s, 'a) Probe.t -> int -> 's -> ('s, 'a) moves
(** The automaton's own moves, each successor stepped when asked. *)

val explore_with :
  ?por:bool ->
  (int -> 's -> ('s, 'a) moves) ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  ('s, 'a) t
(** [explore_with moves aut probe] is the core: it seeds the FIFO
    queue with [aut]'s start state and the probe's seeds, then pops
    one state at a time and asks [moves i s] for the moves of state
    [s] at discovery index [i] right before processing it (again on
    each POR re-expansion).  It resolves each successor against the
    seen-set in the order it takes the moves, so a move it skips
    (done, slept) is never asked for.  {!explore} is
    [explore_with (stepped aut probe)]. *)

val count : ('s, 'a) Afd_ioa.Automaton.t -> ('s, 'a) Probe.t -> int option
(** [count aut probe] is [Some k] when {!explore} [aut probe] (POR off)
    is [Exhausted] with [k] states, and [None] when it is [Truncated].
    It runs the same core in a count-only mode: no edge is recorded,
    and the search stops at the first budget cut, where [Truncated] is
    already certain — a truncating count costs the states expanded
    before the first cut, not the whole budget. *)

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
