(** Fairness-aware liveness analysis over an explored state space.

    {!Space} records the full labelled edge relation; this module is
    the static pass on top of it: a Tarjan condensation of the
    {e task-labelled} subgraph (probed environment edges do not count —
    the scheduler only drives tasks), decorated with the weak-fairness
    obligations the composition's task structure induces.  An infinite
    execution of a finite graph eventually stays inside one SCC, and
    the IOA fairness condition (Section 2.4: every fair task fires
    infinitely often or is disabled infinitely often) relativizes to
    that SCC: a fair infinite suffix exists through a state iff its SCC
    has an internal edge and, for every fair task, either an internal
    edge fired by that task or a member state where it is disabled.
    Dually, a fair {e finite} execution may end exactly in a state
    where no fair task is enabled (a {e fair stop} — unfair tasks such
    as the crash automaton's need never fire, Section 4.4).

    {!Mc} uses these two predicates to prove or refute [Stable]
    (eventually) clauses, and {!val-cycle_actions} rebuilds a concrete
    fair cycle — the loop of a lasso counterexample — by stitching
    BFS paths through one witness waypoint per fair task.

    {b Flat arrays, records on demand.}  {!analyze} condenses a CSR
    int array of the task edges (successors in reverse edge order) with
    an int-array Tarjan, groups members and internal edges per SCC the
    same way, and computes one fair-cycle bit per SCC, only for SCCs
    with an internal edge.  Fair stops are evaluated per state on
    request, stopping at the first enabled fair task, and memoized.
    Nearly every SCC of a product graph is a single state without a
    self-loop, so none of this builds a per-SCC value.  The {!scc}
    records — lists, witnesses, obligations — are built once, on the
    first {!sccs} call: the SCC lint rules ask for them, the model
    checker never does.

    Soundness vs completeness under incomplete graphs: every SCC,
    internal edge and obligation {e witness} is a positive fact about
    real transitions, so cycles found on a truncated or sleep-set
    reduced graph are real; but absence claims ("no fair cycle", "this
    SCC is terminal") require an [Exhausted], unreduced exploration —
    {!Mc} only {e proves} under that verdict. *)

type scc = {
  id : int;  (** Tarjan order: children before parents (reverse topological) *)
  members : int list;  (** state indices, ascending *)
  internal : int list;
      (** indices into {!Space.t}[.edges] of intra-SCC task-labelled
          edges; non-empty iff an execution can cycle here *)
  terminal : bool;
      (** no task-labelled edge leaves the SCC: once entered, the
          scheduler can never drive the system out *)
  unmet : string list;
      (** fair tasks with neither an internal edge firing them nor a
          member state disabling them: no infinite stay in this SCC is
          weakly fair to these tasks *)
  disabled_witness : (string * int) list;
      (** per fair task, a member state where it is disabled (if any) —
          the waypoint {!val-cycle_actions} routes through when the SCC
          has no internal edge firing that task *)
  fair_stops : int list;
      (** members where no fair task is enabled: a fair execution may
          end there *)
}

type t
(** The condensation of one exploration: SCC ids, the fair-cycle bit
    per SCC, memoized fair stops, and the {!scc} records on demand. *)

val analyze : ('s, 'a) Afd_ioa.Automaton.t -> ('s, 'a) Space.t -> t
(** Condense the task-labelled subgraph of the exploration (iterative
    Tarjan over a CSR array — no recursion, safe at 10^5 states) and
    compute, for each SCC with an internal edge, whether it carries a
    weakly fair cycle.  The automaton must be the one the space was
    explored from (task enabledness is re-evaluated on the stored
    states, only where an answer needs it). *)

val scc_count : t -> int

val scc_of : t -> int -> int
(** [scc_of t i]: the id of state [i]'s SCC, in [0 ..< scc_count t]. *)

val fair_tasks : t -> string list
(** Names of the automaton's fair tasks, in task-list order. *)

val sccs : t -> scc array
(** Every SCC's record, indexed by id.  Built on the first call and
    shared by later ones; {!fair_cycle_through}, {!fair_stop_at} and
    {!cycle_actions} never build them. *)

val fair_cycle_through : t -> int -> bool
(** Does a weakly fair infinite execution exist that visits state [i]
    infinitely often?  True iff [i]'s SCC has an internal edge and no
    unmet obligation (its record's [internal <> [] && unmet = []]); one
    bit per SCC, computed by {!analyze}. *)

val fair_stop_at : t -> int -> bool
(** May a fair execution end in state [i]?  True iff no fair task is
    enabled there (pending unfair tasks — crashes — need never fire).
    Evaluated on the first request, stopping at the first enabled fair
    task, and memoized. *)

val cycle_actions : ('s, 'a) Space.t -> t -> int -> 'a list
(** A concrete fair cycle through state [i], as the action sequence of
    a closed walk [i -> ... -> i] over intra-SCC task edges: for every
    fair task the walk either fires it or visits a state where it is
    disabled, so repeating the walk forever is a weakly fair suffix.
    Built by BFS-stitching through one witness waypoint per task.
    Raises [Invalid_argument] unless {!fair_cycle_through} holds. *)

val fired_actions : ('s, 'a) Space.t -> equal:('a -> 'a -> bool) -> 'a list -> bool array
(** For each candidate action, whether any edge of the exploration
    fires it — one pass over the edge array with early exit, shared by
    the [dead-transition] rule. *)
