(** A combinator DSL for temporal properties of AFD traces, judged on
    finite prefixes of infinite executions.

    Formulas are built from {e atoms} — predicates over the next event
    and an incrementally maintained {!state} summary (length,
    crashed-so-far set, last output per location) —
    combined with [always], [until], [implies], [eventually_stable]
    (the paper's limit-extension liveness reading: the finite trace
    stands for the infinite trace where each live location repeats its
    last output forever), stateful [folding] clauses, and conjunction.
    {!Monitor} compiles a formula to an incremental monitor consuming
    one event in O(1) amortized time and O(1) memory in the trace
    length, so properties can be checked online over runs of any
    length. *)

open Afd_ioa

(** {1 Trace summary} *)

type 'o state = private {
  n : int;  (** size of the location universe *)
  len : int;  (** number of events consumed so far *)
  crashed : Loc.Set.t;  (** crashed-so-far context *)
  last_output : 'o Loc.Map.t;
      (** last payload per location that output; its key set is the set
          of locations that have output at all.  The summary keeps no
          counts: a clause that needs per-location counts above 1 folds
          its own accumulator ({!folding}), and a [Fold] accumulator
          joins the model checker's state identity. *)
}

val init : n:int -> 'o state
val update : 'o state -> 'o Fd_event.t -> 'o state

val permute : (Loc.t -> Loc.t) -> ('o -> 'o) -> 'o state -> 'o state
(** [permute pi pout st] relabels the summary under a process
    permutation: crashed set and last-output keys move through [pi],
    last-output payloads through [pout]; the length is untouched.  Used
    by the symmetry-quotiented model checker ({!Afd_analysis.Mc}). *)

val live : 'o state -> Loc.Set.t
(** [universe \ crashed]. *)

val last_outputs : 'o state -> ('o Loc.Map.t * Loc.Set.t, string) result
(** The last output of every live location together with the live set
    (limit-extension semantics); [Error reason] when some live location
    has produced no output yet (the smallest such location). *)

(** {1 Stable-suffix judgements} *)

type judgement = J_sat | J_violated of string Lazy.t | J_undecided of string Lazy.t
(** Reasons are lazy.  The model checker ({!Afd_analysis.Mc}) judges
    every reachable state, yet prints the reason of at most one state
    per clause, so a judge should build its reason with {!reasonf},
    which captures the arguments and formats nothing.  Reasons are
    forced only where they are printed: by {!to_verdict} (hence by the
    {!Monitor} verdicts), and in the model checker when it records a
    clause's first violation or its liveness pivot. *)

val reasonf : ('a, Format.formatter, unit, string Lazy.t) format4 -> 'a
(** [reasonf fmt args] is the reason [Fmt.str fmt args], formatted
    when forced ([Format.kdprintf] underneath). *)

val j_and : judgement -> judgement -> judgement
(** Same dominance and reason accumulation as {!Verdict.( &&& )}; the
    joined reason is formatted only when forced. *)

val j_all : judgement list -> judgement
val j_of_bool : undecided:string -> bool -> judgement
val to_verdict : judgement -> Verdict.t
(** Forces the reason. *)

val for_locs : Loc.Set.t -> (Loc.t -> judgement) -> judgement
(** Per-location lifting: conjunction of [f i] over the set, ascending. *)

val for_live : 'o state -> (Loc.t -> judgement) -> judgement

(** {1 Formulas} *)

type 'o event_check = 'o state -> 'o Fd_event.t -> (unit, string) result
(** An atom over the next event, seeing the {e pre}-state (the summary
    of the strict prefix before the event, so [state.len] is the
    0-based index of the event and [state.crashed] the crashed-so-far
    set). [Error reason] is a violation at that event. *)

type 'o state_judge = 'o state -> judgement
(** An atom over the current summary, re-judged after every event. *)

type 'o clause =
  | Always of 'o event_check  (** safety: holds at every event *)
  | Until of ('o state -> bool) * 'o event_check
      (** [Until (release, check)]: [check] holds at every event until
          the first event whose pre-state satisfies [release]; weak
          until — a prefix that never releases and never violates is
          [Sat]. *)
  | Stable of 'o state_judge
      (** liveness under limit-extension: judged on the current
          summary, never latched — verdicts may flip as the prefix
          grows. *)
  | Fold : ('o, 'acc) fold -> 'o clause
      (** a stateful clause carrying its own accumulator *)

and ('o, 'acc) fold = {
  finit : 'acc;
  fstep : 'o state -> 'acc -> 'o Fd_event.t -> ('acc, string) result;
      (** [Error] is a latched violation at the current event *)
  fjudge : 'o state -> 'acc -> judgement;
  fperm : ((Loc.t -> Loc.t) -> 'acc -> 'acc) option;
      (** how a process permutation transports the accumulator.  The
          symmetry-quotiented model checker ({!Afd_analysis.Mc})
          permutes whole product states, accumulators included; a fold
          without a transport makes its spec uncertifiable (the subject
          falls back to unreduced exploration), never unsound. *)
  fcmp : ('acc -> 'acc -> int) option;
      (** a total order on accumulators (e.g. [Loc.Set.compare],
          [List.compare Loc.Set.compare]), from which the
          symmetry-quotiented model checker picks each orbit's minimum.
          Contract: [fcmp a b = 0] only when [a] and [b] are
          structurally equal — the checker compares and hashes
          accumulators structurally, and the order must agree with
          that identity, as {!Afd_analysis.Mc.state_symmetry}'s
          [ss_cmp] must.  Location sets are words and meet it; a
          [Loc.Map], whose tree shape depends on how it was built, does
          not.  Certification requires [fcmp] alongside [fperm]. *)
}

type 'o t = Clause of string * 'o clause | Conj of 'o t list

val always : name:string -> 'o event_check -> 'o t
val until : name:string -> release:('o state -> bool) -> 'o event_check -> 'o t
val eventually_stable : name:string -> 'o state_judge -> 'o t

val folding :
  ?perm:((Loc.t -> Loc.t) -> 'acc -> 'acc) ->
  ?cmp:('acc -> 'acc -> int) ->
  name:string ->
  init:'acc ->
  step:('o state -> 'acc -> 'o Fd_event.t -> ('acc, string) result) ->
  judge:('o state -> 'acc -> judgement) ->
  'o t

val implies : name:string -> premise:('o state -> 'o Fd_event.t -> bool) -> 'o event_check -> 'o t
(** [always] restricted to events satisfying the premise. *)

val conj : 'o t list -> 'o t
val ( &&& ) : 'o t -> 'o t -> 'o t

val clauses : 'o t -> (string * 'o clause) list
(** Flattened named clauses, in formula order. *)

(** {1 Canned clauses} *)

val validity : unit -> 'o t
(** The AFD validity property (Section 3.2), as two clauses:
    ["validity.safety"] — no output at a location after its crash —
    and ["validity.liveness"] — every live location has a last output
    (the limit-extension reading of "outputs infinitely often"),
    undecided until then. *)
