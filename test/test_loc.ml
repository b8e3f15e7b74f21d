(* [Loc.Set] (a bit mask in one word) against [Set.Make (Int)], the
   balanced-tree sets it replaced: random operation sequences over
   locations 0..61 run through both, every intermediate set must have
   the same elements, and every query of [Set.S] must answer alike on
   the results — [compare]'s sign included, since orbit minima under
   symmetry reduction are taken in that order. *)

open Afd_ioa
module L = Loc.Set
module R = Set.Make (Int)

type op =
  | Add of int
  | Remove of int
  | Union of int list
  | Inter of int list
  | Diff of int list
  | Filter of int * int  (** keep [x] with [x mod m = r] *)
  | Map of int * int  (** [x -> (a * x + b) mod 62] *)
  | Filter_map of int  (** drop multiples of [m], shift the rest down by one *)
  | Partition of int * bool  (** keep the side of [x mod m = 0] *)
  | Split of int * bool  (** keep the part below or above [x] *)
  | Of_seq of int list

let print_op = function
  | Add x -> Printf.sprintf "add %d" x
  | Remove x -> Printf.sprintf "remove %d" x
  | Union l -> Printf.sprintf "union %s" (QCheck2.Print.(list int) l)
  | Inter l -> Printf.sprintf "inter %s" (QCheck2.Print.(list int) l)
  | Diff l -> Printf.sprintf "diff %s" (QCheck2.Print.(list int) l)
  | Filter (m, r) -> Printf.sprintf "filter mod %d = %d" m r
  | Map (a, b) -> Printf.sprintf "map (%d x + %d) mod 62" a b
  | Filter_map m -> Printf.sprintf "filter_map %d" m
  | Partition (m, side) -> Printf.sprintf "partition mod %d (%b)" m side
  | Split (x, low) -> Printf.sprintf "split %d (%s)" x (if low then "below" else "above")
  | Of_seq l -> Printf.sprintf "add_seq %s" (QCheck2.Print.(list int) l)

let gen_loc = QCheck2.Gen.int_range 0 61
let gen_locs = QCheck2.Gen.(list_size (int_range 0 16) gen_loc)

(* [Split] and [Remove] also take points just outside the universe. *)
let gen_point = QCheck2.Gen.int_range (-2) 63

let gen_op =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun x -> Add x) gen_loc);
        (3, map (fun x -> Remove x) gen_point);
        (1, map (fun l -> Union l) gen_locs);
        (1, map (fun l -> Inter l) gen_locs);
        (1, map (fun l -> Diff l) gen_locs);
        (1, map2 (fun m r -> Filter (m, r mod m)) (int_range 1 5) (int_range 0 4));
        (1, map2 (fun a b -> Map (a, b)) (int_range 1 7) (int_range 0 61));
        (1, map (fun m -> Filter_map m) (int_range 2 5));
        (1, map2 (fun m side -> Partition (m, side)) (int_range 1 4) bool);
        (1, map2 (fun x low -> Split (x, low)) gen_point bool);
        (1, map (fun l -> Of_seq l) gen_locs);
      ])

let apply op (l, r) =
  match op with
  | Add x -> (L.add x l, R.add x r)
  | Remove x -> (L.remove x l, R.remove x r)
  | Union xs -> (L.union l (L.of_list xs), R.union r (R.of_list xs))
  | Inter xs -> (L.inter l (L.of_list xs), R.inter r (R.of_list xs))
  | Diff xs -> (L.diff l (L.of_list xs), R.diff r (R.of_list xs))
  | Filter (m, k) ->
    let p x = x mod m = k in
    (L.filter p l, R.filter p r)
  | Map (a, b) ->
    let f x = ((a * x) + b) mod 62 in
    (L.map f l, R.map f r)
  | Filter_map m ->
    let f x = if x mod m = 0 then None else Some (x - 1) in
    (L.filter_map f l, R.filter_map f r)
  | Partition (m, side) ->
    let p x = x mod m = 0 in
    let pick (a, b) = if side then a else b in
    (pick (L.partition p l), pick (R.partition p r))
  | Split (x, low) ->
    let (la, _, lb), (ra, _, rb) = (L.split x l, R.split x r) in
    if low then (la, ra) else (lb, rb)
  | Of_seq xs -> (L.add_seq (List.to_seq xs) l, R.add_seq (List.to_seq xs) r)

let sign c = compare c 0
let points = List.init 66 (fun i -> i - 2)

(* Every [Set.S] query on a pair built alike, against a second pair [o]
   for the binary relations.  [find_first]/[find_last] take the
   monotone predicates they are specified for. *)
let same_queries (l, r) (lo, ro) =
  let exn f = try Ok (f ()) with Not_found -> Error () in
  let acc_fold fold s = fold (fun x acc -> x :: acc) s [] in
  let acc_iter iter s =
    let out = ref [] in
    iter (fun x -> out := x :: !out) s;
    !out
  in
  L.elements l = R.elements r
  && L.to_list l = R.to_list r
  && L.cardinal l = R.cardinal r
  && L.is_empty l = R.is_empty r
  && sign (L.compare l lo) = sign (R.compare r ro)
  && sign (L.compare lo l) = sign (R.compare ro r)
  && L.equal l lo = R.equal r ro
  && L.subset l lo = R.subset r ro
  && L.subset lo l = R.subset ro r
  && L.disjoint l lo = R.disjoint r ro
  && L.min_elt_opt l = R.min_elt_opt r
  && L.max_elt_opt l = R.max_elt_opt r
  && L.choose_opt l = R.choose_opt r
  && exn (fun () -> L.min_elt l) = exn (fun () -> R.min_elt r)
  && exn (fun () -> L.max_elt l) = exn (fun () -> R.max_elt r)
  && exn (fun () -> L.choose l) = exn (fun () -> R.choose r)
  && acc_fold L.fold l = acc_fold R.fold r
  && acc_iter L.iter l = acc_iter R.iter r
  && List.of_seq (L.to_seq l) = List.of_seq (R.to_seq r)
  && List.of_seq (L.to_rev_seq l) = List.of_seq (R.to_rev_seq r)
  && L.for_all (fun x -> x mod 3 <> 0) l = R.for_all (fun x -> x mod 3 <> 0) r
  && L.exists (fun x -> x mod 5 = 1) l = R.exists (fun x -> x mod 5 = 1) r
  && List.for_all
       (fun x ->
         let la, lm, lb = L.split x l and ra, rm, rb = R.split x r in
         L.mem x l = R.mem x r
         && L.find_opt x l = R.find_opt x r
         && exn (fun () -> L.find x l) = exn (fun () -> R.find x r)
         && (L.elements la, lm, L.elements lb) = (R.elements ra, rm, R.elements rb)
         && List.of_seq (L.to_seq_from x l) = List.of_seq (R.to_seq_from x r)
         && L.find_first_opt (fun y -> y >= x) l = R.find_first_opt (fun y -> y >= x) r
         && L.find_last_opt (fun y -> y <= x) l = R.find_last_opt (fun y -> y <= x) r
         && exn (fun () -> L.find_first (fun y -> y >= x) l)
            = exn (fun () -> R.find_first (fun y -> y >= x) r)
         && exn (fun () -> L.find_last (fun y -> y <= x) l)
            = exn (fun () -> R.find_last (fun y -> y <= x) r))
       points

let differential_prop =
  QCheck2.Test.make ~name:"Loc.Set ≡ Set.Make (Int) on random operation sequences"
    ~count:300
    ~print:QCheck2.Print.(pair (list print_op) (list int))
    QCheck2.Gen.(pair (list_size (int_range 0 40) gen_op) gen_locs)
    (fun (ops, other) ->
      let o = (L.of_list other, R.of_list other) in
      let rec run s = function
        | [] -> same_queries s o && same_queries o s && same_queries s s
        | op :: rest ->
          let ((l, r) as s') = apply op s in
          L.elements l = R.elements r && run s' rest
      in
      run (L.empty, R.empty) ops)

(* [compare] is [Set.Make]'s order on pinned cases where the prefix
   rule decides: a proper prefix comes first. *)
let test_compare_order () =
  let s = L.of_list in
  let check name expect a b =
    Alcotest.(check int) name expect (sign (L.compare (s a) (s b)))
  in
  check "{} < {0}" (-1) [] [ 0 ];
  check "{0} < {0,1}" (-1) [ 0 ] [ 0; 1 ];
  check "{0,1} < {1}" (-1) [ 0; 1 ] [ 1 ];
  check "{0,5} < {0,6}" (-1) [ 0; 5 ] [ 0; 6 ];
  check "{0,6} > {0,5,7}" 1 [ 0; 6 ] [ 0; 5; 7 ];
  check "{61} > {0,61}" 1 [ 61 ] [ 0; 61 ];
  check "{3,61} = {61,3}" 0 [ 3; 61 ] [ 61; 3 ]

(* Sets with the same elements are the same word, whatever the order
   they were built in: structural equality and [Hashtbl.hash] see only
   the elements. *)
let test_structural_identity () =
  let up = List.fold_left (fun s x -> L.add x s) L.empty [ 0; 7; 3; 61; 12 ]
  and down = List.fold_right L.add [ 12; 61; 3; 7; 0 ] L.empty
  and via = L.union (L.of_list [ 61; 0 ]) (L.diff (L.of_list [ 3; 7; 12; 40 ]) (L.singleton 40)) in
  Alcotest.(check bool) "structurally equal" true (up = down && down = via);
  Alcotest.(check bool) "hash alike" true
    (Hashtbl.hash up = Hashtbl.hash down && Hashtbl.hash down = Hashtbl.hash via);
  Alcotest.(check int) "Loc.hash_set alike" (Loc.hash_set up) (Loc.hash_set via)

let test_limit () =
  Alcotest.(check int) "max_locations" 62 Loc.max_locations;
  Alcotest.(check (list int)) "the widest universe" (List.init 62 Fun.id)
    (L.elements (Loc.set_of_universe ~n:62));
  Alcotest.check_raises "add 62"
    (Invalid_argument "Loc.Set: location 62 outside 0..61") (fun () ->
      ignore (L.add 62 L.empty));
  Alcotest.check_raises "singleton (-1)"
    (Invalid_argument "Loc.Set: location -1 outside 0..61") (fun () ->
      ignore (L.singleton (-1)));
  Alcotest.check_raises "map out of range"
    (Invalid_argument "Loc.Set: location 62 outside 0..61") (fun () ->
      ignore (L.map (fun x -> x + 1) (L.singleton 61)));
  Alcotest.check_raises "universe 63"
    (Invalid_argument "Loc.universe: n = 63 exceeds the 62-location limit") (fun () ->
      ignore (Loc.universe ~n:63));
  Alcotest.check_raises "set_of_universe 63"
    (Invalid_argument "Loc.universe: n = 63 exceeds the 62-location limit") (fun () ->
      ignore (Loc.set_of_universe ~n:63))

let suite =
  [ QCheck_alcotest.to_alcotest differential_prop;
    Alcotest.test_case "compare: Set.Make's lexicographic order" `Quick test_compare_order;
    Alcotest.test_case "equal sets are one word" `Quick test_structural_identity;
    Alcotest.test_case "the 62-location limit fails loudly" `Quick test_limit;
  ]
