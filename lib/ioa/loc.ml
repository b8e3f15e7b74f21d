type t = int

let compare = Int.compare
let equal = Int.equal

let pp fmt i = Format.fprintf fmt "p%d" i
let to_string i = "p" ^ string_of_int i

let max_locations = 62

let check_universe ~n =
  if n <= 0 then invalid_arg "Loc.universe: n must be positive";
  if n > max_locations then
    invalid_arg
      (Printf.sprintf "Loc.universe: n = %d exceeds the %d-location limit" n
         max_locations)

let universe ~n =
  check_universe ~n;
  List.init n Fun.id

let min_not_in ~n excluded =
  let rec go i = if i >= n then None else if excluded i then go (i + 1) else Some i in
  go 0

(* Bit i of the word is location i.  Every location lies in
   0..max_locations-1, so the sign bit is never set and a set is a
   non-negative immediate: structural equality and [Hashtbl.hash] see
   exactly its elements. *)
module Set = struct
  type elt = int
  type t = int

  let empty = 0
  let is_empty s = s = 0

  let bit x =
    if x < 0 || x >= max_locations then
      invalid_arg
        (Printf.sprintf "Loc.Set: location %d outside 0..%d" x (max_locations - 1));
    1 lsl x

  let in_range x = x >= 0 && x < max_locations
  let mem x s = in_range x && s land (1 lsl x) <> 0
  let add x s = s lor bit x
  let singleton x = bit x
  let remove x s = if in_range x then s land lnot (1 lsl x) else s
  let union = ( lor )
  let inter = ( land )
  let diff a b = a land lnot b
  let disjoint a b = a land b = 0
  let subset a b = a land lnot b = 0
  let equal = Int.equal

  (* [Set.Make]'s order: the sorted element lists compared
     lexicographically, a proper prefix first.  Below the lowest bit
     where [a] and [b] differ the two lists agree; the set holding that
     bit continues with it and comes first, unless the other set has
     no element above it and so is a prefix. *)
  let compare a b =
    if a = b then 0
    else
      let d = a lxor b in
      let low = d land -d in
      let a_has = a land low <> 0 in
      let other = if a_has then b else a in
      let other_ends = other land lnot (low - 1) = 0 in
      if a_has = other_ends then 1 else -1

  let cardinal s =
    let rec go s c = if s = 0 then c else go (s land (s - 1)) (c + 1) in
    go s 0

  (* index of the lowest set bit of a non-zero word *)
  let low_index s =
    let rec go i s = if s land 1 <> 0 then i else go (i + 1) (s lsr 1) in
    go 0 s

  let high_index s =
    let rec go i = if s lsr i = 1 then i else go (i + 1) in
    go 0

  let min_elt s = if s = 0 then raise Not_found else low_index s
  let min_elt_opt s = if s = 0 then None else Some (low_index s)
  let max_elt s = if s = 0 then raise Not_found else high_index s
  let max_elt_opt s = if s = 0 then None else Some (high_index s)
  let choose = min_elt
  let choose_opt = min_elt_opt
  let find x s = if mem x s then x else raise Not_found
  let find_opt x s = if mem x s then Some x else None

  let fold f s acc =
    let rec go i s acc =
      if s = 0 then acc
      else go (i + 1) (s lsr 1) (if s land 1 <> 0 then f i acc else acc)
    in
    go 0 s acc

  let iter f s =
    let rec go i s =
      if s <> 0 then begin
        if s land 1 <> 0 then f i;
        go (i + 1) (s lsr 1)
      end
    in
    go 0 s

  let elements s = List.rev (fold List.cons s [])
  let to_list = elements
  let of_list l = List.fold_left (fun s x -> add x s) empty l
  let for_all p s = fold (fun i ok -> ok && p i) s true
  let exists p s = fold (fun i ok -> ok || p i) s false
  let filter p s = fold (fun i acc -> if p i then acc else acc land lnot (1 lsl i)) s s
  let partition p s =
    let yes = filter p s in
    (yes, s land lnot yes)
  let map f s = fold (fun i acc -> add (f i) acc) s empty

  let filter_map f s =
    fold (fun i acc -> match f i with Some j -> add j acc | None -> acc) s empty

  (* the elements of [s] strictly below / above [x] *)
  let below x s =
    if x <= 0 then 0 else if x >= max_locations then s else s land ((1 lsl x) - 1)

  let above x s =
    if x < 0 then s
    else if x >= max_locations - 1 then 0
    else s land lnot ((1 lsl (x + 1)) - 1)

  let split x s = (below x s, mem x s, above x s)

  let find_first_opt p s =
    let rec go i s =
      if s = 0 then None
      else if s land 1 <> 0 && p i then Some i
      else go (i + 1) (s lsr 1)
    in
    go 0 s

  let find_last_opt p s =
    let rec go i = if i < 0 then None else if mem i s && p i then Some i else go (i - 1) in
    if s = 0 then None else go (high_index s)

  let find_first p s = match find_first_opt p s with Some x -> x | None -> raise Not_found
  let find_last p s = match find_last_opt p s with Some x -> x | None -> raise Not_found

  let rec to_seq s () =
    if s = 0 then Seq.Nil
    else
      let i = low_index s in
      Seq.Cons (i, to_seq (s land (s - 1)))

  let to_seq_from x s = to_seq (s land lnot (below x s))

  let rec to_rev_seq s () =
    if s = 0 then Seq.Nil
    else
      let i = high_index s in
      Seq.Cons (i, to_rev_seq (s land lnot (1 lsl i)))

  let add_seq seq s = Seq.fold_left (fun s x -> add x s) s seq
  let of_seq seq = add_seq seq empty
end

module Map = Map.Make (Int)

let hash_set (s : Set.t) = Hashtbl.hash s

let set_of_universe ~n =
  check_universe ~n;
  (1 lsl n) - 1

let pp_set fmt s =
  Format.fprintf fmt "{%a}" (Fmt.list ~sep:(Fmt.any ",") pp) (Set.elements s)
