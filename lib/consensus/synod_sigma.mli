(** Consensus from Σ + Ω — the Synod protocol with {e dynamic quorums
    drawn from the quorum failure detector} instead of static
    majorities.

    Σ (the quorum detector) and Ω together are a weakest pair for
    consensus in systems with any number of crashes (Delporte-Gallet,
    Fauconnier, Guerraoui; the paper cites Σ in its AFD catalog).  The
    algorithm is {!Synod_omega}'s driver with the {!Synod} instance's
    quorum argument "the responders contain the quorum Σ last output
    here" in place of "a majority":

    - safety needs only Σ's {e intersection} property — any two quorums
      used in any two ballots intersect, which is exactly what the
      standard Paxos argument requires of majorities;
    - termination needs Σ's {e completeness} (eventually quorums
      contain only live locations, so waiting on them terminates) and
      Ω's eventual leader, instead of a live-majority assumption.

    With the truthful [fd_sigma] (quorum = non-crashed locations) the
    system tolerates any [f <= n-1] crashes — strictly beyond
    {!Synod_omega}'s minority bound, which the tests demonstrate. *)

open Afd_ioa
open Afd_system

val sigma_name : string
(** "Sigma". *)

val omega_name : string
(** "Omega" (shared with {!Synod_omega}). *)

type st

val process : n:int -> loc:Loc.t -> (st * bool, Act.t) Automaton.t
val processes : n:int -> Act.t Component.t list

val net : n:int -> ?values:bool list -> crashable:Loc.Set.t -> unit -> Net.t
(** Processes + channels + crash + the FD-Σ and FD-Ω automata +
    environment. *)
