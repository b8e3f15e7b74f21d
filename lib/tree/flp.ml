type outcome = {
  survived : int;
  exhausted : bool;
  starved_labels : string list;
}

let label_name = Fmt.str "%a" Tagged_tree.pp_label

let walk (va : Valence.t) ~max_steps ~must_take =
  let tree = va.Valence.tree in
  let nlabels = Array.length tree.Tagged_tree.labels in
  let last_taken = Array.make nlabels 0 in
  let ever_taken = Array.make nlabels false in
  let current = ref 0 in
  let steps = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) && !steps < max_steps do
    let node = Tagged_tree.node tree !current in
    let candidates =
      Array.to_list (Array.mapi (fun k e -> (k, e)) node.Tagged_tree.edges)
      |> List.filter (fun (_, (_, act, _)) -> act <> None)
    in
    (* fairness constraint: if some label is overdue, it must be taken *)
    let forced =
      List.filter (fun (k, _) -> must_take ~label:k ~overdue:(!steps - last_taken.(k))) candidates
    in
    let pool = match forced with [] -> candidates | f -> f in
    let bivalent_moves =
      List.filter
        (fun (_, (_, _, dst)) -> va.Valence.of_node.(dst) = Valence.Bivalent)
        pool
    in
    match (bivalent_moves, pool) with
    | [], [] -> exhausted := true
    | [], _ :: _ when forced <> [] ->
      (* a forced move exists but all forced moves leave bivalence *)
      exhausted := true
    | [], _ :: _ -> exhausted := true
    | (k, (_, _, dst)) :: _, _ ->
      ever_taken.(k) <- true;
      last_taken.(k) <- !steps;
      current := dst;
      incr steps;
      (* refresh disabled labels so they do not count as starved-able *)
      Array.iteri
        (fun j (_, act, _) -> if act = None then last_taken.(j) <- !steps)
        (Tagged_tree.node tree !current).Tagged_tree.edges
  done;
  let starved =
    List.filteri (fun k _ -> not ever_taken.(k)) (List.init nlabels Fun.id)
    |> List.map (fun k ->
           label_name tree.Tagged_tree.labels.(k))
  in
  { survived = !steps; exhausted = !exhausted; starved_labels = starved }

let unconstrained va ~max_steps =
  walk va ~max_steps ~must_take:(fun ~label:_ ~overdue:_ -> false)

let fair_windowed va ~window ~max_steps =
  walk va ~max_steps ~must_take:(fun ~label:_ ~overdue -> overdue >= window)
