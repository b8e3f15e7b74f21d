(** Asynchronous failure detectors (Section 3.2).

    An AFD is a crash problem [D = (Î, O_D, T_D)] satisfying crash
    exclusivity, validity, closure under sampling, and closure under
    constrained reordering.  A {!spec} packages the detector's output
    payload type with the [Afd_prop] formula whose traces are [T_D].
    Every spec is built by {!of_prop}, so the offline {!check}, the
    online {!monitor} and the model checker all read that one formula.

    {b Finite-trace semantics of {!check}.}  Safety clauses of each
    detector are checked exactly.  "Eventually/permanently" clauses are
    checked under {e limit-extension semantics}: the finite trace
    stands for the infinite trace in which each live location keeps
    repeating its last output forever.  This reading is exactly
    preserved by sampling (live locations keep all outputs) and by
    constrained reordering (per-location order, hence last outputs, are
    preserved), so the closure properties of Section 3.2 are honestly
    testable on finite traces.

    {b Output payloads compare structurally.}  The detector automata's
    output guards, the trace operations and the model checker's state
    identity ({!Afd_analysis.Mc}) compare payloads with [( = )], and the
    checker's seen-set hashes them with [Hashtbl.hash].  A location and
    a [Loc.Set] mask are one immediate word, so equal payloads are the
    same value.  A payload holding a [Loc.Map] does
    not meet this contract: two equal maps may differ in tree shape,
    and it needs a canonical map representation first. *)


type 'o spec = {
  name : string;
  pp_out : 'o Fmt.t;
  prop : n:int -> 'o Afd_prop.Prop.t;
      (** the temporal formula defining [T_D] at [n] locations,
          validity clauses included. *)
  perm_out : ((int -> int) -> 'o -> 'o) option;
      (** how a process permutation transports an output value
          ([Loc.Set.map] for suspect sets, application for leader
          outputs).  Needed by the symmetry-quotiented model checker to
          permute trace summaries; [None] leaves the spec uncertifiable
          (unreduced exploration), never unsound. *)
}

val of_prop :
  ?perm_out:((int -> int) -> 'o -> 'o) ->
  name:string ->
  pp_out:'o Fmt.t ->
  (n:int -> 'o Afd_prop.Prop.t) ->
  'o spec
(** Build a spec from a temporal formula.  The formula must include
    the validity clauses (use {!Afd_prop.Prop.validity}). *)

val check : 'o spec -> n:int -> 'o Fd_event.t list -> Verdict.t
(** Membership of the (finite, limit-extended) trace in [T_D]:
    [Afd_prop.Monitor.replay] of the formula, so online and offline
    verdicts coincide definitionally. *)

val monitor : ?window:int -> 'o spec -> n:int -> 'o Afd_prop.Monitor.t
(** A fresh online monitor for the spec's formula.  [window] sizes the
    counterexample witness window. *)

type closure_failure = {
  original : string;  (** formatted original trace *)
  transformed : string;  (** formatted transformed trace *)
  verdict : Verdict.t;  (** verdict on the transformed trace *)
}

val check_closure_under_sampling :
  'o spec -> n:int -> rng:Random.State.t -> trials:int -> 'o Fd_event.t list ->
  (unit, closure_failure) result
(** Given a trace accepted by the spec, draw [trials] random samplings
    and re-check each; the first rejected sampling (a counterexample to
    closure under sampling) is returned as [Error].  If the input trace
    itself is not accepted the check is vacuous and returns [Ok ()]. *)

val check_closure_under_reordering :
  'o spec -> n:int -> rng:Random.State.t -> trials:int -> 'o Fd_event.t list ->
  (unit, closure_failure) result

val check_all_properties :
  'o spec -> n:int -> rng:Random.State.t -> trials:int -> 'o Fd_event.t list ->
  (unit, string) result
(** Validity of the trace when accepted, plus both closure checks. *)
