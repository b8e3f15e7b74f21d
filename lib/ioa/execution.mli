(** Executions, schedules, and traces (Section 2.2).

    An execution fragment is an alternating sequence of states and
    actions [s0, a1, s1, a2, ...].  We store the start state and the
    (action, resulting state) steps.  The {e schedule} of an execution
    is its sequence of events (all actions); its {e trace} is the
    subsequence of external actions.

    The representation is abstract: steps are kept newest-first with a
    materialized length, so {!extend}, {!length} and {!final} are O(1)
    and building a run step by step never pays a list append. *)

type ('s, 'a) t

val init : 's -> ('s, 'a) t
(** The null execution fragment consisting of one state. *)

val extend : ('s, 'a) t -> 'a -> 's -> ('s, 'a) t
(** Append one step.  O(1). *)

val length : ('s, 'a) t -> int
(** Number of steps.  O(1). *)

val start : ('s, 'a) t -> 's
(** The initial state of the fragment. *)

val steps : ('s, 'a) t -> ('a * 's) list
(** The (action, resulting state) steps in order.  O(length). *)

val final : ('s, 'a) t -> 's
(** The last state.  O(1). *)

val schedule : ('s, 'a) t -> 'a list
val states : ('s, 'a) t -> 's list

val trace : external_:('a -> bool) -> ('s, 'a) t -> 'a list
(** Projection of the schedule on external actions. *)

val concat : ('s, 'a) t -> ('s, 'a) t -> ('s, 'a) t
(** [concat a b]: [b] must start in the final state of [a]
    (checked with structural equality); Section 2.2's [a . b]. *)

val is_execution_of : ('s, 'a) Automaton.t -> ('s, 'a) t -> bool
(** Replays the steps: start state matches, and each action is enabled
    and leads (deterministically) to the recorded state.  Uses
    structural equality on states. *)

val apply_schedule : ('s, 'a) Automaton.t -> 's -> 'a list -> ('s, 'a) t option
(** [apply_schedule a s sched] is the result of applying the schedule
    to [a] in state [s] (Section 2.2, "applicable"); [None] when some
    event is not enabled. *)
