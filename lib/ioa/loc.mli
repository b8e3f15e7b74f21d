(** Location identifiers.

    The paper posits a fixed finite set [Pi] of [n] location IDs
    (Section 3.1).  We realize locations as integers [0 .. n-1]; the
    placeholder element "bottom" of the paper is represented by
    [option] at use sites rather than by a sentinel value. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val pp : Format.formatter -> t -> unit
(** [pp] prints a location as [pN], e.g. [p0], [p3]. *)

val to_string : t -> string

val universe : n:int -> t list
(** [universe ~n] is the set Pi = [0; ...; n-1], in increasing order.
    Raises [Invalid_argument] if [n <= 0]. *)

val min_not_in : n:int -> (t -> bool) -> t option
(** [min_not_in ~n excluded] is the smallest location of [universe ~n]
    for which [excluded] is [false], or [None] if all are excluded.
    This is the [min (Pi \ crashset)] operation of Algorithm 1. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val hash_set : Set.t -> int
(** A hash congruent with [Set.equal]: it folds over the elements in
    increasing order, so two sets with the same elements hash alike
    whatever the shape of their trees (unlike [Hashtbl.hash], which
    reads the tree). *)

val set_of_universe : n:int -> Set.t
val pp_set : Format.formatter -> Set.t -> unit
