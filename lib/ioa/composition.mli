(** Composition of I/O automata (Section 2.3).

    A collection of automata over a common action alphabet is composed
    by matching output actions of some automata with the same-named
    input actions of others; all components sharing an action perform
    it together.

    Requirements checked (by sampled probes, since signatures are
    predicates over possibly-infinite alphabets):
    - at most one component controls (outputs or has internal) any
      given action;
    - internal actions of one component belong to no other component.

    A composition is itself usable as an automaton via
    {!as_automaton}. *)

type 'a t

type 'a state = 'a Component.inst array

(** A task of the composed system, identified by component and task
    index; carries the component and task names for display. *)
type task_id = {
  comp_idx : int;
  task_idx : int;
  comp_name : string;
  task_name : string;
  fair : bool;
}

val make : name:string -> 'a Component.t list -> 'a t
val name : 'a t -> string
val components : 'a t -> 'a Component.t array
val start : 'a t -> 'a state

val kind_of : 'a t -> 'a -> Automaton.kind option
(** Composed signature: an action is an output of the composition if it
    is an output of some component, internal if internal to some
    component, an input if it is an input of some component and an
    output/internal of none. *)

val dual_controlled : 'a t -> probes:'a list -> ('a * string list) list
(** Probed actions controlled (output or internal) by more than one
    component, with the offending component names.  Single
    implementation behind {!check_compatible} and the [dual-control]
    rule of the [Afd_analysis] lint engine. *)

val shared_internal : 'a t -> probes:'a list -> ('a * string) list
(** Probed actions that are internal to one component but also appear
    in another component's signature (the internal-action privacy half
    of compatibility, Section 2.3), with the internal owner's name. *)

val check_compatible : 'a t -> probes:'a list -> (unit, string) result
(** Sampled compatibility check: no probed action is controlled by two
    components, and no probed internal action is shared.  An empty
    [probes] list is an [Error] (nothing was checked). *)

val step : 'a t -> 'a state -> 'a -> 'a state option
(** Perform an action: all components with the action in their
    signature step together; [None] if any of them has it disabled
    (which, for a compatible composition, only happens when the unique
    controlling component has it disabled or a non-input-enabled
    automaton misbehaves). *)

val step_touched : 'a t -> 'a state -> 'a -> ('a state * int list) option
(** Like {!step}, but also reports the indices (ascending) of the
    components whose instance actually changed.  Components whose
    signature excludes the action — or whose transition hands back the
    same state — are skipped and keep their instance {e physically},
    so task enabledness of untouched components is provably unchanged
    and cached enabledness need only be refreshed for touched ones.
    When no component moves, the input state array itself is
    returned. *)

val tasks : 'a t -> task_id list
(** All tasks of all components, component-major order. *)

val tasks_array : 'a t -> task_id array
(** Same as {!tasks}, materialized once per composition and memoized;
    the scheduler's per-step structures index into this array.  The
    caller must not mutate it. *)

val comp_task_indices : 'a t -> int array array
(** [comp_task_indices c].(i) lists the indices into {!tasks_array} of
    component [i]'s tasks — the invalidation sets for incremental
    enabledness.  Memoized; the caller must not mutate it. *)

val enabled : 'a t -> 'a state -> task_id -> 'a option
(** The unique action enabled in the given task, if any. *)

val enabled_tasks : 'a t -> 'a state -> (task_id * 'a) list

val quiescent : 'a t -> 'a state -> bool
(** No fair task is enabled. *)

val find_component : 'a t -> string -> int option

val state_inst : 'a state -> int -> 'a Component.inst

val equal_state : 'a state -> 'a state -> bool
(** Pointwise structural equality of component states. *)

val hash_state : 'a state -> int
(** Structural hash consistent with {!equal_state}. *)

val as_automaton : 'a t -> ('a state, 'a) Automaton.t
(** View a composition as a single automaton (flattened task list),
    enabling nested composition and hiding. *)

val pair : name:string -> ('s, 'a) Automaton.t -> ('t, 'a) Automaton.t -> ('s * 't, 'a) Automaton.t
(** [pair ~name a b] is [as_automaton] of the composition of [a] and
    [b], with the state kept as the plain pair [(s, t)] instead of an
    array of existential instances: same signature priority, same rule
    that every component with the action in its signature must accept
    it, same ["<component>/<task>"] task names, in the same order.  Its
    state is first-order, so a process permutation can act on it and
    structural equality compares it. *)

val hash_pair : 's * 't -> int
(** {!hash_state}'s formula on a pair's two components, so
    [hash_pair (s, t)] is [hash_state] of the matching two-instance
    state; congruent with structural equality. *)
