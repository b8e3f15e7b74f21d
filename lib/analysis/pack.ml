(* Flat-packing primitives for the compiled explorer (Cspace).

   Two conflict-checked dedup structures share the same discipline: a
   hash accelerates the lookup, but exact equality is always the
   authority — a hash collision costs one extra comparison (counted in
   [conflicts]), never a wrong merge.  That invariant is what lets the
   compiled explorer replace boxed states with dense integer ids while
   staying structurally identical to [Space.explore].

   [interner] canonicalizes boxed values (component states, actions)
   into dense ids: id equality coincides with the supplied equality
   provided the hash is a congruence for it (equal values hash equal),
   which holds for every pairing used here — structural hash with
   structural equality.

   [keyset] dedups fixed-width byte strings (packed product states: one
   32-bit little-endian component id per slot, no padding) with an
   FNV-1a hash over the raw bytes and an arena that stores all keys
   back to back, so membership is one hash, one probe sequence and a
   [width]-byte memcmp — O(1) in the number of states. *)

(* Structural equality that never raises: values containing abstract
   blocks compare unequal, which only duplicates ids, never confuses
   distinct values (same contract as [Probe.structural]). *)
let total_equal a b = try Stdlib.compare a b = 0 with Invalid_argument _ -> false

type 'v interner = {
  ihash : 'v -> int;
  iequal : 'v -> 'v -> bool;
  mutable islots : int array; (* open addressing; id + 1, 0 = empty *)
  mutable imask : int;
  mutable ivals : 'v array;
  mutable ihashes : int array;
  mutable icount : int;
  mutable iconflicts : int;
}

let interner ?(hash = Hashtbl.hash) ~equal () =
  { ihash = hash;
    iequal = equal;
    islots = Array.make 16 0;
    imask = 15;
    ivals = [||];
    ihashes = [||];
    icount = 0;
    iconflicts = 0;
  }

let size t = t.icount
let conflicts t = t.iconflicts
let value t i = t.ivals.(i)

let grow_slots t =
  let m' = (2 * (t.imask + 1)) - 1 in
  let s' = Array.make (m' + 1) 0 in
  Array.iter
    (fun v ->
      if v <> 0 then begin
        let j = ref (t.ihashes.(v - 1) land m') in
        while s'.(!j) <> 0 do
          j := (!j + 1) land m'
        done;
        s'.(!j) <- v
      end)
    t.islots;
  t.islots <- s';
  t.imask <- m'

let intern t v =
  if 2 * (t.icount + 1) > t.imask then grow_slots t;
  let h = t.ihash v in
  let m = t.imask in
  let j = ref (h land m) in
  let res = ref (-1) in
  (try
     while t.islots.(!j) <> 0 do
       let id = t.islots.(!j) - 1 in
       if t.ihashes.(id) = h then
         if t.iequal t.ivals.(id) v then begin
           res := id;
           raise Exit
         end
         else t.iconflicts <- t.iconflicts + 1;
       j := (!j + 1) land m
     done
   with Exit -> ());
  if !res >= 0 then !res
  else begin
    let id = t.icount in
    let cap = Array.length t.ivals in
    if id >= cap then begin
      let cap' = max 16 (2 * cap) in
      let vals' = Array.make cap' v in
      Array.blit t.ivals 0 vals' 0 cap;
      t.ivals <- vals';
      let hashes' = Array.make cap' 0 in
      Array.blit t.ihashes 0 hashes' 0 cap;
      t.ihashes <- hashes'
    end;
    t.ivals.(id) <- v;
    t.ihashes.(id) <- h;
    t.islots.(!j) <- id + 1;
    t.icount <- id + 1;
    id
  end

(* --- fixed-width packed keys --- *)

let id_bytes = 4

(* Little-endian 32-bit id, written byte by byte: the int32 Bytes
   accessors box their value on every call (19M boxed int32s per
   200k-state exploration showed up as pure minor-GC churn), and ids
   are nonnegative < 2^31 so four plain bytes are exactly equivalent. *)
let set_id b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

let get_id b off =
  Char.code (Bytes.unsafe_get b off)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)

(* FNV-1a folded a 32-bit word at a time (packed keys are whole id
   slots, so the word loop is the only one that runs), byte tail for
   odd lengths, folded into OCaml's tagged-int range.  The constants
   are the 64-bit offset basis and prime; the multiply wraps in 63-bit
   native arithmetic, which is fine — any deterministic mixing is,
   since equality stays authoritative. *)
let hash_slice b off len =
  let h = ref 0x1cf29ce484222325 in
  let stop = off + (len land lnot 3) in
  let i = ref off in
  while !i < stop do
    h := (!h lxor get_id b !i) * 0x100000001b3;
    i := !i + 4
  done;
  for j = !i to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b j)) * 0x100000001b3
  done;
  !h land max_int

(* Word-at-a-time memcmp, same layout assumption as [hash_slice]. *)
let eq_slice a aoff b boff len =
  let res = ref true in
  let stop = len land lnot 3 in
  let i = ref 0 in
  while !res && !i < stop do
    if get_id a (aoff + !i) <> get_id b (boff + !i) then res := false;
    i := !i + 4
  done;
  while !res && !i < len do
    if Bytes.unsafe_get a (aoff + !i) <> Bytes.unsafe_get b (boff + !i) then
      res := false;
    incr i
  done;
  !res

type keyset = {
  width : int;
  mutable arena : Bytes.t; (* kcount keys, back to back *)
  mutable khash : int array;
  mutable kcount : int;
  mutable kslots : int array; (* open addressing; idx + 1, 0 = empty *)
  mutable kmask : int;
  mutable kconflicts : int;
}

let keyset ~width =
  let width = max width 1 in
  { width;
    arena = Bytes.create (64 * width);
    khash = Array.make 64 0;
    kcount = 0;
    kslots = Array.make 128 0;
    kmask = 127;
    kconflicts = 0;
  }

let key_count t = t.kcount
let key_conflicts t = t.kconflicts
let key_width t = t.width
let key_hash t scratch = hash_slice scratch 0 t.width
let key_get t i dst = Bytes.blit t.arena (i * t.width) dst 0 t.width
let key_id t i slot = get_id t.arena ((i * t.width) + (slot * id_bytes))

let grow_kslots t =
  let m' = (2 * (t.kmask + 1)) - 1 in
  let s' = Array.make (m' + 1) 0 in
  Array.iter
    (fun v ->
      if v <> 0 then begin
        let j = ref (t.khash.(v - 1) land m') in
        while s'.(!j) <> 0 do
          j := (!j + 1) land m'
        done;
        s'.(!j) <- v
      end)
    t.kslots;
  t.kslots <- s';
  t.kmask <- m'

(* Read-only: workers probe the frozen table; [h] must be
   [key_hash t scratch]. *)
let find_key t scratch h =
  let m = t.kmask in
  let j = ref (h land m) in
  let res = ref (-1) in
  (try
     while t.kslots.(!j) <> 0 do
       let idx = t.kslots.(!j) - 1 in
       if t.khash.(idx) = h && eq_slice t.arena (idx * t.width) scratch 0 t.width
       then begin
         res := idx;
         raise Exit
       end;
       j := (!j + 1) land m
     done
   with Exit -> ());
  !res

(* Append [scratch] as a new key.  The caller has either just probed
   with [find_key] or accepts a duplicate check here: [add_key] is
   find-or-add, returning the existing index when present (and counting
   a conflict on every hash-equal-but-bytes-unequal probe). *)
let add_key t scratch h =
  if 2 * (t.kcount + 1) > t.kmask then grow_kslots t;
  let m = t.kmask in
  let j = ref (h land m) in
  let res = ref (-1) in
  (try
     while t.kslots.(!j) <> 0 do
       let idx = t.kslots.(!j) - 1 in
       if t.khash.(idx) = h then
         if eq_slice t.arena (idx * t.width) scratch 0 t.width then begin
           res := idx;
           raise Exit
         end
         else t.kconflicts <- t.kconflicts + 1;
       j := (!j + 1) land m
     done
   with Exit -> ());
  if !res >= 0 then !res
  else begin
    let idx = t.kcount in
    let cap = Bytes.length t.arena / t.width in
    if idx >= cap then begin
      let arena' = Bytes.create (2 * cap * t.width) in
      Bytes.blit t.arena 0 arena' 0 (cap * t.width);
      t.arena <- arena';
      let kh' = Array.make (2 * cap) 0 in
      Array.blit t.khash 0 kh' 0 cap;
      t.khash <- kh'
    end;
    Bytes.blit scratch 0 t.arena (idx * t.width) t.width;
    t.khash.(idx) <- h;
    t.kslots.(!j) <- idx + 1;
    t.kcount <- idx + 1;
    idx
  end

(* --- open-addressed int -> int table (step-table memo) ---

   Keys are nonnegative packed (state id, action id) ints; values are
   arbitrary ints.  Fibonacci-hashed linear probing over two flat int
   arrays — no boxing, no option allocation, no generic hashing — which
   is what makes the per-component step memo disappear from the
   compiled explorer's profile.  Absence is reported as [min_int]
   (never a legal step code). *)

type itab = {
  mutable tkeys : int array; (* -1 = empty *)
  mutable tvals : int array;
  mutable tmask : int;
  mutable tcount : int;
}

let itab_absent = min_int

let itab () =
  { tkeys = Array.make 64 (-1); tvals = Array.make 64 0; tmask = 63; tcount = 0 }

let itab_mix key mask = (key * 0x2545F4914F6CDD1D) land max_int land mask

let grow_itab t =
  let m' = (2 * (t.tmask + 1)) - 1 in
  let k' = Array.make (m' + 1) (-1) and v' = Array.make (m' + 1) 0 in
  Array.iteri
    (fun i key ->
      if key >= 0 then begin
        let j = ref (itab_mix key m') in
        while k'.(!j) >= 0 do
          j := (!j + 1) land m'
        done;
        k'.(!j) <- key;
        v'.(!j) <- t.tvals.(i)
      end)
    t.tkeys;
  t.tkeys <- k';
  t.tvals <- v';
  t.tmask <- m'

(* Read-only: safe from worker domains while the owner is quiescent.
   [unsafe_get] is in bounds by construction: [j] is masked by [tmask]
   and both arrays have [tmask + 1] slots. *)
let itab_find t key =
  let keys = t.tkeys in
  let m = t.tmask in
  let j = ref (itab_mix key m) in
  let res = ref itab_absent in
  (try
     while Array.unsafe_get keys !j >= 0 do
       if Array.unsafe_get keys !j = key then begin
         res := Array.unsafe_get t.tvals !j;
         raise Exit
       end;
       j := (!j + 1) land m
     done
   with Exit -> ());
  !res

let itab_add t key v =
  if 2 * (t.tcount + 1) > t.tmask then grow_itab t;
  let m = t.tmask in
  let j = ref (itab_mix key m) in
  while t.tkeys.(!j) >= 0 do
    j := (!j + 1) land m
  done;
  t.tkeys.(!j) <- key;
  t.tvals.(!j) <- v;
  t.tcount <- t.tcount + 1

(* --- growable int arrays (flat edge/parent/depth storage) --- *)

type ints = { mutable data : int array; mutable len : int }

let ints () = { data = Array.make 16 0; len = 0 }
let ints_len a = a.len

(* In bounds by the callers' own length discipline ([i < len], and
   [len <= Array.length data] by construction of [ints_push]). *)
let ints_get a i = Array.unsafe_get a.data i
let ints_set a i v = Array.unsafe_set a.data i v

let ints_push a v =
  let cap = Array.length a.data in
  if a.len >= cap then begin
    let d = Array.make (2 * cap) 0 in
    Array.blit a.data 0 d 0 cap;
    a.data <- d
  end;
  a.data.(a.len) <- v;
  a.len <- a.len + 1

(* Extend by [k] slots filled with [v] (per-state bitset words). *)
let ints_extend a k v =
  for _ = 1 to k do
    ints_push a v
  done
