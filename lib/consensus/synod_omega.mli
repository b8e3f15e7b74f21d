(** Ballot-based consensus using the leader oracle Ω: the Synod
    protocol of Paxos ({!Synod}) with Ω as the leader-election module
    and majority quorums.

    A location starts a fresh ballot of its {!Synod} instance when Ω
    names it and it holds a proposal, has not decided, and its instance
    is idle or preempted.  It decides the value its instance chooses,
    or the value of a [Decided] announcement.

    Safety (agreement, validity) holds under any scheduling and any
    crashes; termination needs a live majority ([f < n/2]) and relies
    on Ω eventually electing one live leader: its continual outputs
    retrigger preempted proposers, so ballots stop colliding once the
    leader stabilizes.  This is the executable content of Section 9's
    claim that a sufficiently strong AFD circumvents FLP. *)

open Afd_ioa
open Afd_system

val detector_name : string
(** "Omega". *)

type st

val process : n:int -> loc:Loc.t -> (st * bool, Act.t) Automaton.t
val processes : n:int -> Act.t Component.t list

val def : sigma:string option -> n:int -> self:Loc.t -> st Process.def
(** The binary driver, shared with {!Synod_sigma}.  With [~sigma:None]
    it waits for majorities; with [~sigma:(Some d)] it waits until the
    responders cover the quorum that detector [d] last output here, and
    starts no ballot before the first such output. *)

val net : n:int -> ?values:bool list -> crashable:Loc.Set.t -> unit -> Net.t
(** Full system: processes, channels, crash automaton, Algorithm 1's
    FD-Ω lifted into the system, and the environment ([values]
    scripts the proposals). *)
