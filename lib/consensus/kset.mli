(** k-set agreement using Ψk — the set-agreement-oriented detectors of
    the paper's catalog put to work.

    Each location proposes its own ID (location-valued proposals make
    the k-bound meaningful: binary k-set agreement is trivial for
    k ≥ 2).  The protocol drives [k] {e parallel {!Synod} instances}
    over location values, with majority quorums; the proposer role of
    instance [j] belongs, at each location, to the [j]-th smallest
    member of the Ψk output there.  A location decides the first value
    any instance chooses.

    - {e k-agreement}: each Synod instance is safe, so at most [k]
      distinct values are decided;
    - {e validity}: instance values originate from instance proposers'
      own IDs or recovered acceptances thereof;
    - {e termination} (f < n/2, majority quorums per instance): Ψk
      eventually shows one common set [K] at all live locations, so
      each instance's proposer role stabilizes; at least the instance
      led by a live member of [K] decides, and its decision is
      broadcast.

    This realizes, executably, why Ψk-class detectors are "set
    agreement oriented" [22, 23]. *)

open Afd_ioa
open Afd_system

val detector_name : string
(** "Psi". *)

type st

val process : n:int -> k:int -> loc:Loc.t -> (st * bool, Act.t) Automaton.t
val processes : n:int -> k:int -> Act.t Component.t list

val net : n:int -> k:int -> crashable:Loc.Set.t -> Net.t

(** {1 Specification monitors} *)

val decisions : Act.t list -> (Loc.t * Loc.t) list
(** (location, decided ID) of every [Decide_id] event. *)

val k_agreement : k:int -> Act.t list -> Afd_core.Verdict.t
(** At most [k] distinct decided values. *)

val validity : n:int -> Act.t list -> Afd_core.Verdict.t
(** Every decided ID is the ID of some location (the proposers propose
    their own IDs). *)

val integrity : Act.t list -> Afd_core.Verdict.t
(** At most one decision per location, none after its crash. *)

val termination : n:int -> Act.t list -> Afd_core.Verdict.t

val check : n:int -> k:int -> Act.t list -> Afd_core.Verdict.t
