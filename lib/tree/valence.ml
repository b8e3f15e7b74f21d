type valence = Bivalent | Univalent of bool | Blocked

let pp fmt = function
  | Bivalent -> Format.pp_print_string fmt "bivalent"
  | Univalent v -> Format.fprintf fmt "%d-valent" (Bool.to_int v)
  | Blocked -> Format.pp_print_string fmt "blocked"

type t = {
  tree : Tagged_tree.t;
  of_node : valence array;
  past : (bool * bool) array;  (** (0-decision happened, 1-decision happened) *)
}

(* A node's valence mixes its past (decisions recorded on the walk from
   the root — recoverable on the quotient graph as forward reachability
   from decide-edge targets) with its future (decide edges reachable
   from it — backward reachability from decide-edge sources). *)

let adjacency tree =
  let n = Tagged_tree.size tree in
  let preds = Array.make n [] and succs = Array.make n [] in
  let seeds0 = ref [] and seeds1 = ref [] in
  let into0 = ref [] and into1 = ref [] in
  Tagged_tree.iter
    (fun node ->
      let id = node.Tagged_tree.id in
      Array.iter
        (fun (_, act, dst) ->
          if dst <> id then begin
            preds.(dst) <- id :: preds.(dst);
            succs.(id) <- dst :: succs.(id)
          end;
          match Tagged_tree.decision_of_edge act with
          | Some false ->
            seeds0 := id :: !seeds0;
            into0 := dst :: !into0
          | Some true ->
            seeds1 := id :: !seeds1;
            into1 := dst :: !into1
          | None -> ())
        node.Tagged_tree.edges)
    tree;
  (preds, succs, (!seeds0, !seeds1), (!into0, !into1))

let sweep n adj seeds =
  let reach = Array.make n false in
  let stack = ref seeds in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | id :: rest ->
      stack := rest;
      if not reach.(id) then begin
        reach.(id) <- true;
        List.iter (fun p -> if not reach.(p) then stack := p :: !stack) adj.(id)
      end
  done;
  reach

let classify tree =
  let n = Tagged_tree.size tree in
  let preds, succs, (seeds0, seeds1), (into0, into1) = adjacency tree in
  let future0 = sweep n preds seeds0 and future1 = sweep n preds seeds1 in
  let past0 = sweep n succs into0 and past1 = sweep n succs into1 in
  let of_node =
    Array.init n (fun id ->
        let has0 = future0.(id) || past0.(id) and has1 = future1.(id) || past1.(id) in
        match (has0, has1) with
        | true, true -> Bivalent
        | true, false -> Univalent false
        | false, true -> Univalent true
        | false, false -> Blocked)
  in
  { tree; of_node; past = Array.init n (fun id -> (past0.(id), past1.(id))) }

let root_bivalent t = t.of_node.(0) = Bivalent

let count t v = Array.fold_left (fun acc x -> if x = v then acc + 1 else acc) 0 t.of_node

let agreement_in_graph t =
  let bad = ref None in
  Array.iteri
    (fun id (p0, p1) ->
      if p0 && p1 && !bad = None then
        bad := Some (Printf.sprintf "node %d has both decision values in its past" id))
    t.past;
  match !bad with None -> Ok () | Some m -> Error m

let univalent_stable t =
  let bad = ref None in
  Tagged_tree.iter
    (fun node ->
      match t.of_node.(node.Tagged_tree.id) with
      | Univalent v ->
        Array.iter
          (fun (label, _, dst) ->
            match t.of_node.(dst) with
            | Univalent v' when Bool.equal v v' -> ()
            | other ->
              if !bad = None then
                bad :=
                  Some
                    (Fmt.str "node %d is %a but its %a-successor %d is %a"
                       node.Tagged_tree.id pp (Univalent v) Tagged_tree.pp_label label
                       dst pp other))
          node.Tagged_tree.edges
      | Bivalent | Blocked -> ())
    t.tree;
  match !bad with None -> Ok () | Some msg -> Error msg
