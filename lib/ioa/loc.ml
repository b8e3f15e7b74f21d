type t = int

let compare = Int.compare
let equal = Int.equal
let hash = Fun.id

let pp fmt i = Format.fprintf fmt "p%d" i
let to_string i = "p" ^ string_of_int i

let universe ~n =
  if n <= 0 then invalid_arg "Loc.universe: n must be positive";
  List.init n Fun.id

let min_not_in ~n excluded =
  let rec go i = if i >= n then None else if excluded i then go (i + 1) else Some i in
  go 0

module Set = Set.Make (Int)
module Map = Map.Make (Int)

let hash_set s = Set.fold (fun i h -> (h * 31) + i + 1) s 0

let set_of_universe ~n = Set.of_list (universe ~n)

let pp_set fmt s =
  Format.fprintf fmt "{%a}" (Fmt.list ~sep:(Fmt.any ",") pp) (Set.elements s)
