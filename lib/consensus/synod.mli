(** One single-decree Synod (Paxos) instance, generic in its value
    type: the consensus core that {!Synod_omega} (majority quorums),
    {!Synod_sigma} (quorums from Σ) and {!Kset} ([k] instances over
    location values) drive.

    Every location plays all three roles.  As {e proposer}, {!start}
    opens a ballot congruent to the location mod [n] (so ballots never
    collide); once the promisers pass the quorum test, it broadcasts
    the value of the highest-ballot acceptance among the promises, or
    its own proposal.  As {e acceptor}, it promises and accepts by
    ballot comparison.  As {e learner}, it chooses a value once the
    acceptors of one (ballot, value) pair pass the quorum test.  Safety
    needs only that any two sets passing the test intersect.

    The functions are pure: each returns the new instance and at most
    one outgoing message, a reply to the sender or a broadcast.  The
    driver translates it to its wire format, queues it, and delivers
    its own copy synchronously (channels only connect distinct
    locations). *)

open Afd_ioa

type phase = Idle | Phase1 | Phase2

type 'v t = {
  ballot : int;  (** current ballot; -1 before the first attempt *)
  phase : phase;
  promises : (Loc.t * (int * 'v) option) list;  (** for the current ballot *)
  max_seen : int;  (** highest ballot observed anywhere *)
  promised : int;  (** -1 = none *)
  accepted : (int * 'v) option;
  learned : ((int * 'v) * Loc.Set.t) list;  (** acceptors heard per (ballot, value) *)
  chosen : 'v option;
}

type 'v msg =
  | Prepare of int  (** phase-1a *)
  | Promise of int * (int * 'v) option  (** phase-1b, with the last acceptance *)
  | Nack of int  (** ballot refused *)
  | Accept of int * 'v  (** phase-2a *)
  | Accepted of int * 'v  (** phase-2b, broadcast to learners *)

type 'v out =
  | Reply of 'v msg  (** to the sender of the message received *)
  | Broadcast of 'v msg

val init : 'v t

val stalled : 'v t -> bool
(** Idle, or preempted: some ballot above the own one has been seen.
    The drivers (re)start a ballot only then. *)

val start : n:int -> self:Loc.t -> 'v t -> 'v t * 'v out
(** Open the smallest own ballot above every ballot seen so far. *)

val receive :
  quorum:(Loc.Set.t -> bool) ->
  propose:'v ->
  src:Loc.t ->
  'v msg ->
  'v t ->
  'v t * 'v out option
(** Handle one message from [src].  Every message raises [max_seen] to
    its ballot.  [quorum] is the acknowledgement test for phase 2 and
    learning; [propose] is the value to accept when no promise carries
    an acceptance. *)

val phase2 : quorum:(Loc.Set.t -> bool) -> propose:'v -> 'v t -> 'v t * 'v out option
(** In phase 1, broadcast the accept request if the promisers pass
    [quorum].  {!receive} calls it on every promise; a driver whose
    quorum test changes calls it again. *)

val learn : quorum:(Loc.Set.t -> bool) -> 'v t -> 'v t
(** Unless a value is chosen, choose the first learned (ballot, value)
    whose acceptors pass [quorum].  {!receive} calls it on every
    [Accepted]; a driver whose quorum test changes calls it again. *)
