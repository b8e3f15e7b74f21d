(** Existentially packed automata.

    Components of one composed system share an action alphabet ['a] but
    each has its own private state type; this module hides the state
    type so that heterogeneous collections of automata can be composed
    (see {!Composition}). *)

type 'a t = C : ('s, 'a) Automaton.t -> 'a t
(** A component is an automaton with its state type abstracted. *)

type 'a inst = I : ('s, 'a) Automaton.t * ('s, 'a) Automaton.task array * 's -> 'a inst
(** A component instance: an automaton, its tasks materialized as an
    array (so per-task enabledness probes are O(1), not [List.nth]),
    and a current state. *)

val name : 'a t -> string
val kind_of : 'a t -> 'a -> Automaton.kind option

val init : 'a t -> 'a inst
(** Instance in the automaton's unique start state. *)

val inst_name : 'a inst -> string

val step : 'a inst -> 'a -> 'a inst option
(** Apply an action; [None] if the action is not enabled.  Actions not
    in the component's signature are ignored and return the instance
    itself ({e physically}, so callers can detect untouched components
    with [==]); composition uses this to broadcast actions to all
    components and report which ones actually moved. *)

val task_names : 'a t -> (string * bool) list
(** Names and fairness flags of the component's tasks, in order. *)

val task_count : 'a inst -> int
(** Number of tasks of the component.  O(1). *)

val enabled_of_task : 'a inst -> int -> 'a option
(** [enabled_of_task inst k] is the action enabled in task [k] (index
    into the task list), if any.  O(1) lookup of the task. *)

val enabled_actions : 'a inst -> 'a list

val equal_state : 'a inst -> 'a inst -> bool
(** Structural equality of the underlying states (used to detect
    repeated configurations in execution trees).  Both instances must
    come from the same component; raises [Invalid_argument] otherwise
    when detectable. *)

val state_hash : 'a inst -> int
(** Structural hash of the underlying state, consistent with
    {!equal_state}. *)
