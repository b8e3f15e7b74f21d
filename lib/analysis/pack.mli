(** Flat-packing primitives for the compiled explorer.

    Conflict-checked dedup: hashes accelerate, exact equality decides.
    A hash collision costs one extra comparison (counted), never a
    wrong merge — the invariant that keeps the compiled explorer
    structurally identical to the boxed one. *)

(** Structural equality that never raises: values containing abstract
    blocks (closures) compare unequal — duplicate ids, never confusion. *)
val total_equal : 'v -> 'v -> bool

(** {1 Value interner}

    Canonicalizes boxed values into dense ids [0..size-1].  Id equality
    coincides with [equal] whenever [hash] is a congruence for it
    (equal values hash equal). *)

type 'v interner

val interner : ?hash:('v -> int) -> equal:('v -> 'v -> bool) -> unit -> 'v interner

(** Find-or-add; returns the canonical id. *)
val intern : 'v interner -> 'v -> int

val value : 'v interner -> int -> 'v
val size : 'v interner -> int

(** Hash-equal-but-value-unequal probes seen by [intern] — the
    exact-equality fallback engaging. *)
val conflicts : 'v interner -> int

(** {1 Fixed-width packed keys}

    Keys are [width]-byte strings (packed product states: one 32-bit
    little-endian id per component slot, no padding), deduped through
    an FNV-1a hash and stored back to back in an arena. *)

(** Bytes per packed id slot (32-bit little-endian). *)
val id_bytes : int

val set_id : Bytes.t -> int -> int -> unit
val get_id : Bytes.t -> int -> int

(** FNV-1a (folded a 32-bit word at a time) over [len] bytes of [b]
    starting at [off], in tagged-int range. *)
val hash_slice : Bytes.t -> int -> int -> int

type keyset

val keyset : width:int -> keyset
val key_width : keyset -> int
val key_count : keyset -> int

(** Hash of a [width]-byte scratch key, as [find_key]/[add_key] expect. *)
val key_hash : keyset -> Bytes.t -> int

(** Read-only probe of the key table, [-1] when absent. *)
val find_key : keyset -> Bytes.t -> int -> int

(** Find-or-add; returns the key's index. *)
val add_key : keyset -> Bytes.t -> int -> int

(** Copy key [i] into a [width]-byte scratch buffer. *)
val key_get : keyset -> int -> Bytes.t -> unit

(** [key_id t i slot] reads the packed id at [slot] of key [i]. *)
val key_id : keyset -> int -> int -> int

(** Hash-equal-but-bytes-unequal probes seen by [add_key]. *)
val key_conflicts : keyset -> int

(** {1 Open-addressed int -> int table}

    Flat-array memo for packed [(state id, action id)] step keys:
    nonnegative int keys, arbitrary int values, no boxing and no
    allocation on lookup. *)

type itab

val itab : unit -> itab

(** The value [itab_find] reports for an absent key ([min_int] — never
    a legal step code). *)
val itab_absent : int

(** Read-only lookup, {!itab_absent} when absent.  Safe from worker
    domains while the owner is quiescent: mutates nothing. *)
val itab_find : itab -> int -> int

(** Insert a binding.  The caller guarantees the key is nonnegative and
    not yet present (the memo discipline: probe first, add on miss). *)
val itab_add : itab -> int -> int -> unit

(** {1 Growable int arrays} *)

type ints

val ints : unit -> ints
val ints_len : ints -> int
val ints_get : ints -> int -> int
val ints_set : ints -> int -> int -> unit
val ints_push : ints -> int -> unit
val ints_extend : ints -> int -> int -> unit
