(** Incremental monitors compiled from {!Prop} formulas.

    A monitor consumes one event at a time ({!observe}) in O(1)
    amortized and keeps O(window) live memory in the trace length, so
    it can be fed from [Scheduler.run ~observer ~record_fired:false]
    however long the run.  Each clause's state is stepped with
    {!Prop.step}: a clause whose step raises ([Always] checks, [Fold]
    steps) latches the first violation with its trace index; [Stable]
    clauses are re-judged on the current summary ({!Prop.judge}) and
    may flip (the limit-extension reading of eventual properties is
    inherently non-monotone on growing prefixes).

    Offline checking is the same code path: {!replay} feeds a list into
    a fresh monitor, so online and offline verdicts are definitionally
    equal. *)

type 'o t

val default_window : int

val create : ?window:int -> n:int -> 'o Prop.t -> 'o t
(** [window] (default {!default_window}, clamped to >= 1) sizes the
    counterexample witness window, not the verdict: verdicts never
    depend on it. *)

val observe : 'o t -> 'o Fd_event.t -> unit

val verdict : 'o t -> Verdict.t
(** Conjunction of all clause verdicts, each reason tagged with its
    clause name. *)

val clause_verdicts : 'o t -> (string * Verdict.t) list
(** Per-clause verdicts, in formula order, reasons untagged. *)

val judgement : 'o t -> Prop.judgement
val clause_judgements : 'o t -> (string * Prop.judgement) list
(** {!verdict} and {!clause_verdicts} with the reasons still lazy
    ([verdict m = Prop.to_verdict (judgement m)]): a caller that reads
    only a verdict's class (sat, violated, undecided) formats no
    reason. *)

val counterexample : 'o t -> 'o Counterexample.t option
(** The earliest latched violation (minimal violating prefix index,
    with the offending event and witness window); when the verdict is
    [Violated] only via a stable-suffix judgement, a synthetic witness
    at the last consumed event with [event = None].  [None] when no
    clause is violated. *)

val replay : ?window:int -> n:int -> 'o Prop.t -> 'o Fd_event.t list -> Verdict.t
(** Feed a whole list through a fresh monitor and return its verdict —
    the offline wrapper used by legacy [check] functions. *)
