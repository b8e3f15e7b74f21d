(** A one-shot Domain map.

    [map ~jobs f arr] applies [f] to every element of [arr] using up to
    [jobs] domains (the calling domain included) and returns the
    results {e in input order}: each worker claims the next unclaimed
    index from a shared atomic counter and writes its result into that
    slot, so the output array is independent of how work interleaves
    across domains.  [jobs <= 1] degenerates to a plain sequential map
    with no domain spawned.

    {b Crash safety.}  Exceptions are caught per index, so every index
    is still claimed and completed, and every spawned domain is joined
    before the {e first} exception in index order is re-raised — error
    reporting never depends on domain interleaving, and no domain
    outlives the call. *)

val map : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** If [f] raises, the first exception in index order is re-raised
    after all domains have been joined. *)
