(** Location identifiers.

    The paper posits a fixed finite set [Pi] of [n] location IDs
    (Section 3.1).  We realize locations as integers [0 .. n-1]; the
    placeholder element "bottom" of the paper is represented by
    [option] at use sites rather than by a sentinel value. *)

type t = int

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** [pp] prints a location as [pN], e.g. [p0], [p3]. *)

val to_string : t -> string

val max_locations : int
(** The largest [n] a location universe may have: 62, so that a
    {!Set.t} fits one immediate [int]. *)

val universe : n:int -> t list
(** [universe ~n] is the set Pi = [0; ...; n-1], in increasing order.
    Raises [Invalid_argument] if [n <= 0] or [n > max_locations]. *)

val min_not_in : n:int -> (t -> bool) -> t option
(** [min_not_in ~n excluded] is the smallest location of [universe ~n]
    for which [excluded] is [false], or [None] if all are excluded.
    This is the [min (Pi \ crashset)] operation of Algorithm 1. *)

module Set : Set.S with type elt = t
(** Sets of locations as bit masks in one immediate [int]: bit [i] is
    location [i].  Two equal sets are the same word, so structural
    equality, [Stdlib.compare]'s equality and [Hashtbl.hash] on any
    value holding sets are congruent with [Set.equal].  [compare] is
    [Set.Make (Int)]'s order (the sorted elements compared
    lexicographically), [fold], [iter] and [elements] run in increasing
    order and [choose] is [min_elt].  [add], [singleton] and every
    constructor built on them raise [Invalid_argument], naming the
    location, outside [0 .. max_locations - 1]. *)

module Map : Map.S with type key = t
(** Maps are balanced trees: two equal maps may differ in shape, so
    compare them with [Map.equal], not structurally. *)

val hash_set : Set.t -> int
(** A hash congruent with [Set.equal]. *)

val set_of_universe : n:int -> Set.t
(** [set_of_universe ~n] is Pi as a set; it raises as {!universe}. *)

val pp_set : Format.formatter -> Set.t -> unit
