(** Static symmetry inference and orbit reduction.

    Failure-detector automata are (mostly) indifferent to process
    identities: permuting the location universe permutes their states
    and actions without changing behavior.  This module makes that
    claim {e checkable} and {e exploitable} in one breadth-first run.
    {!prepare} runs the state-independent checks on a subject whose
    probe declares an S_n action ({!Probe.symmetry}): signature
    stability, probe-set closure, and a mirror for every task.
    {!explore} then explores the orbit quotient on {!Space}'s BFS core,
    with the {e orbit walk} producing each representative's moves: it checks that steps and task
    enabledness are equivariant, classifies every declared state field
    as identity-independent or process-indexed, and hands the core
    each successor's orbit minimum under [sy_cmp].  The run that
    certifies is the exploration: it ends with a {!certificate} and the
    explored {!Space.t}, or stops at a concrete breaking {!witness}
    (the permutation, the state, the action or task, and the offending
    field when one can be named).

    {b Soundness.}  Equivariance for {e every} permutation at {e every
    representative} the quotient exploration discovers certifies the
    quotient without ever building the unreduced space: by induction
    every reachable state [s] of the original system factors as [ρ·r]
    for a discovered representative [r], because an equivariant step
    from [ρ·r] is [ρ]-conjugate to an explored step from [r].  The walk
    establishes it by checking the two generators of S_n, the
    transposition [(p0 p1)] and the n-cycle, at every element of each
    representative's orbit: chained along the orbit they imply every
    permutation at the representative, provided [step], [enabled] and
    the declared action respect the probe's state identity and the
    action is a group action up to it.  That costs [2·n!/|Stab(r)|]
    generator checks per representative instead of [n! − 1].
    Checking the generators at the representatives alone, or only
    sampled states, does {e not} compose.  When a generator check
    fails, the permutations are swept in {!Perm.all} order at that
    representative, and the first failing one is the witness; the run
    stops at the first failing state in discovery order.  DESIGN.md ("Orbit reduction") spells the argument out. *)

module Perm : sig
  type t = int array
  (** [p.(i)] is the image of location [i]. *)

  val identity : int -> t
  val is_identity : t -> bool
  val apply : t -> int -> int
  val inverse : t -> t
  val compose : t -> t -> t
  (** [compose p q] maps [i] to [p.(q.(i))] (apply [q] first). *)

  val all : n:int -> t list
  (** Every permutation of [0..n-1] ([n!] of them); raises
      [Invalid_argument] for [n > 8] — factorial enumeration is the
      point, not a liability. *)

  val to_string : t -> string
  (** Compact one-line rendering, e.g. ["(p0 p1)"] for a transposition
      (cycle notation, fixed points omitted, identity is ["id"]). *)
end

(** Helpers for building declared actions out of the standard
    containers. *)

val perm_set : (int -> int) -> Afd_ioa.Loc.Set.t -> Afd_ioa.Loc.Set.t
val perm_event :
  ((int -> int) -> 'o -> 'o) ->
  (int -> int) ->
  'o Afd_prop.Fd_event.t ->
  'o Afd_prop.Fd_event.t
(** [Crash i ↦ Crash (π i)], [Output (i, o) ↦ Output (π i, π·o)]. *)

val rename_locs : n:int -> (int -> int) -> string -> string
(** Rewrite every maximal ["p<digits>"] token naming a location below
    [n] through the permutation — the generic task renamer for the
    catalog's ["fd_p0"] / ["crash_p1"] / ["FD-P/fd_p2"] conventions.
    Any other token, including one whose digits overflow an [int], is
    not a location and is copied unchanged. *)

(** {1 The analyzer} *)

type witness = {
  w_kind : [ `Signature | `Step | `Enabled | `Task | `Probe | `Field ];
  w_field : string option;
      (** the offending declared field, when the breaking successor
          disagrees on exactly one *)
  w_task : string option;
  w_perm : string;  (** rendering of the breaking permutation *)
  w_state : int;
      (** discovery index of the breaking state in the quotient
          exploration; [0] for a state-independent failure *)
  w_detail : string;
}

type certificate = {
  c_n : int;
  c_states : int;  (** representatives the exploration stored *)
  c_perms : int;
      (** the order of the group the check covers at each of them
          ([n!]); the walk itself checks only generators *)
  c_exhaustive : bool;
      (** the exploration exhausted within the probe budget — only then
          is the certificate a proof about the whole reachable space *)
  c_fields : (string * [ `Indexed | `Invariant ]) list;
}

type verdict =
  | Certified of certificate
  | Breaking of witness
  | Unsupported of string
      (** no declared symmetry (or an unusable one) — the subject can
          only explore unreduced *)

val pp_witness : witness Fmt.t

type ('s, 'a) quotient
(** A subject whose declared symmetry passed the state-independent
    checks. *)

val prepare :
  ?equiv:('s -> 's -> bool) ->
  ('s, 'a) Afd_ioa.Automaton.t ->
  ('s, 'a) Probe.t ->
  (('s, 'a) quotient, verdict) result
(** The state-independent checks; [Error] is [Unsupported] or
    [Breaking].  The quotient's seen-set is the probe's identity and
    its budget the probe's.  The walk compares a transported successor
    with a stepped one by [equiv] (default [equal_state]): coarser
    where the identity holds data the action does not transport (the
    model checker's latched sinks compare by clause alone). *)

val explore :
  por:bool ->
  ('s, 'a) quotient ->
  (certificate * ('s, 'a) Space.t, witness) result
(** Explore the orbit quotient, checking equivariance as it goes.
    States are orbit minima, edges carry the representatives' own
    actions, [c_exhaustive] is the exploration's verdict.  With [por],
    diamonds close through canonized steps. *)

val analyze : ('s, 'a) Afd_ioa.Automaton.t -> ('s, 'a) Probe.t -> verdict
(** {!prepare}, then {!explore} without POR. *)

(** {1 Orbit canonicalization} *)

val canonizer_w : ('s, 'a) Probe.symmetry -> 's -> 's * Perm.t
(** Orbit minimum under [sy_cmp] with its witnessing permutation [σ]:
    [fst (canonizer_w sy s) = σ·s].  Every representative {!explore}
    stores is its own minimum. *)
