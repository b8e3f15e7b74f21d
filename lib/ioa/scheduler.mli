(** Fair execution of composed systems (Section 2.4).

    A scheduler resolves the nondeterminism between tasks.  Fairness
    requires that every (fair) task either fires infinitely often or is
    infinitely often disabled; on finite prefixes our schedulers
    guarantee a stronger operational property: an enabled fair task is
    never starved longer than a bounded number of steps.

    Tasks marked [fair = false] (the crash automaton's tasks) carry no
    obligation and fire only when the fault-injection schedule forces
    them.

    The stepping loop is incremental: per-task enabledness is cached
    and, after each fired action, refreshed only for the tasks of
    components actually touched by that action (see
    {!Composition.step_touched}), so a step costs O(tasks of touched
    components) rather than O(all tasks).  The fired sequence is
    bit-identical to a naive rescan-everything scheduler for every
    policy, seed, and fault pattern (enforced by a differential
    property test). *)

type policy =
  | Round_robin
      (** Cycle through the task list; fire each enabled task in turn. *)
  | Random of int
      (** Seeded uniform choice among enabled fair tasks, with a
          round-robin starvation backstop so fairness still holds. *)

type force = { at_step : int; task_pattern : string }
(** Fire the first enabled task whose ["component/task"] name contains
    [task_pattern] once the global step counter reaches [at_step].
    Used to inject crashes at chosen points (realizing a chosen fault
    pattern, Section 4.4). *)

type cfg = {
  policy : policy;
  max_steps : int;
  stop_when_quiescent : bool;
  forced : force list;
}

val default_cfg : cfg
(** Round-robin, 1000 steps, stop when quiescent, no forced tasks. *)

val starvation_bound : ntasks:int -> int
(** Operational fairness bound of the [Random] policy: a fair task that
    stays enabled fires within [starvation_bound ~ntasks] consecutive
    steps (the backstop resets its wait counter whenever it fires or is
    disabled).  Exposed so the bound is testable, not just documented;
    see test/test_sched_fairness.ml. *)

val contains : needle:string -> string -> bool
(** Single-pass (KMP) substring containment, the matcher behind
    [task_pattern].  Exposed for the differential test against the
    specification [exists i. hay[i..] starts with needle]. *)

(** {1 Deterministic seed derivation}

    The hook used by the parallel experiment runner ({!Afd_runner}) to
    give every matrix cell its own scheduler seed.  Derivation is a
    pure function of [(root, key, index)], so a sweep's seeds are
    bit-identical regardless of how many domains execute it or in what
    order cells are scheduled — the deterministic-replay discipline of
    randomized systematic testers. *)
module Seed : sig
  val mix64 : int64 -> int64
  (** The splitmix64 finalizer (bijective on [int64]).  Pinned by
      reference vectors in the test suite. *)

  val derive : root:int -> key:string -> index:int -> int
  (** [derive ~root ~key ~index] is a nonnegative seed (62 bits) for
      cell [index] of the stream named [key], suitable for the
      [Random] policy.  Distinct [(key, index)] pairs yield distinct
      seeds (up to the 2^-62 truncation collision probability). *)
end

(** {1 Outcomes and observation}

    A run keeps no intermediate states: the [fired] task/action
    sequence and the final state are the whole outcome, and every
    verdict is a fold over the fired sequence (a trace is a projection
    of the schedule, Section 2.2).  Monitors that need per-step states
    stream them through an {!observer}; a test that wants the states
    back rebuilds them from [fired] with {!Execution.apply_schedule}. *)

type 'a observer =
  step:int ->
  Composition.task_id ->
  'a ->
  touched:int list ->
  'a Composition.state ->
  unit
(** Called after every fired step with the 0-based step index, the task
    and action fired, the ascending indices of the components the
    action touched, and the post-state.  Runs inline in the stepping
    loop: observers should be cheap and must not mutate the
    composition. *)

type 'a outcome = {
  fired : (Composition.task_id * 'a) list;
      (** in firing order; [[]] when the run was started with
          [~record_fired:false] *)
  quiescent : bool;
      (** Stopped because no fair task was enabled
          ({!Composition.quiescent}). *)
  stopped_idle : bool;
      (** Quiescent, but some non-fair task (e.g. an unforced crash)
          was still enabled when the run stopped — the system went
          idle rather than terminally silent. *)
  final_state : 'a Composition.state;  (** Last reached state. *)
  steps_taken : int;
      (** Global step counter at stop (counts idle fault-injection
          waiting steps as well as fired ones). *)
}

val run :
  ?observer:'a observer ->
  ?record_fired:bool ->
  'a Composition.t ->
  cfg ->
  'a outcome
(** Run the scheduler.  [observer] defaults to a no-op.
    [record_fired] (default [true]) controls whether the fired list is
    accumulated: pass [false] for streaming runs whose only consumer is
    the observer, making live memory independent of the run length. *)

val run_custom :
  'a Composition.t ->
  max_steps:int ->
  choose:(step:int -> (Composition.task_id * 'a) list -> (Composition.task_id * 'a) option) ->
  'a outcome
(** Fully adversarial scheduling: [choose] picks among the enabled
    tasks (fair and unfair) at each step; [None] stops the run.  Gives
    the adversary of the FLP/bivalence experiments complete control;
    fairness is then the adversary's responsibility. *)
