(** The message alphabet M (Section 4).

    One closed union of every protocol message used in this repository:
    flooding consensus (Section 9-style experiments), the Synod
    protocol driven by Ω or by Σ + Ω, its k-set variant, and generic
    probes used by examples and tests. *)

open Afd_ioa

(** Which of the two binary consensus values have been seen; the value
    set [V] carried by flooding-consensus messages. *)
type vset = { zero : bool; one : bool }

val vset_empty : vset
val vset_of : bool -> vset
val vset_union : vset -> vset -> vset
val vset_min : vset -> bool option
(** The smallest value present ([false] < [true]); [None] when empty. *)

val vset_mem : bool -> vset -> bool
val pp_vset : vset Fmt.t

type t =
  | Flood of { round : int; vals : vset }  (** flooding consensus round message *)
  | Prepare of { bal : int }  (** Synod phase-1a *)
  | Promise of { bal : int; accepted : (int * bool) option }  (** phase-1b *)
  | Nack of { bal : int }  (** ballot refused *)
  | Accept of { bal : int; v : bool }  (** phase-2a *)
  | Accepted of { bal : int; v : bool }  (** phase-2b, broadcast to learners *)
  | Decided of { v : bool }  (** decision announcement *)
  | Ping of int  (** generic probe used by examples/tests *)
  | Fd_relay of { about : Loc.t; crashed : bool }
      (** gossip of detector information, used by message-based
          detector implementations *)
  (* The same five Synod messages over location-valued proposals,
     tagged with an instance index — the k-set-agreement protocol runs
     one Synod instance per slot of the Ψk leader set.  Both families
     are translations of one core's messages (Afd_consensus.Synod). *)
  | Kprepare of { inst : int; bal : int }
  | Kpromise of { inst : int; bal : int; accepted : (int * Loc.t) option }
  | Knack of { inst : int; bal : int }
  | Kaccept of { inst : int; bal : int; v : Loc.t }
  | Kaccepted of { inst : int; bal : int; v : Loc.t }

val equal : t -> t -> bool
val pp : t Fmt.t
