open Afd_ioa
open Afd_core
open Afd_system

type t = {
  node : int;
  l : Tagged_tree.label;
  r : Tagged_tree.label;
  l_action : Act.t option;
  r_action : Act.t option;
  v : bool;
}

let edge_by_label node label =
  Array.to_list node.Tagged_tree.edges
  |> List.find_opt (fun (l, _, _) -> l = label)

let find_all (va : Valence.t) =
  let tree = va.Valence.tree in
  let hooks = ref [] in
  Tagged_tree.iter
    (fun node ->
      let id = node.Tagged_tree.id in
      if va.Valence.of_node.(id) = Valence.Bivalent then
        Array.iter
          (fun (l, l_action, l_dst) ->
            match va.Valence.of_node.(l_dst) with
            | Valence.Univalent v ->
              Array.iter
                (fun (r, r_action, r_dst) ->
                  if r <> l then
                    let rnode = Tagged_tree.node tree r_dst in
                    match edge_by_label rnode l with
                    | Some (_, _, rl_dst) -> (
                      match va.Valence.of_node.(rl_dst) with
                      | Valence.Univalent v' when Bool.equal v' (not v) ->
                        hooks := { node = id; l; r; l_action; r_action; v } :: !hooks
                      | _ -> ())
                    | None -> ())
                node.Tagged_tree.edges
            | Valence.Bivalent | Valence.Blocked -> ())
          node.Tagged_tree.edges)
    tree;
  List.rev !hooks

let critical_location h =
  match (h.l_action, h.r_action) with
  | Some la, Some ra ->
    let li = Act.loc la and ri = Act.loc ra in
    if Loc.equal li ri then Some li else None
  | _ -> None

let check_theorem59 (va : Valence.t) h =
  match (h.l_action, h.r_action) with
  | None, _ -> Error "l-edge tag is bottom (contradicts Lemma 56)"
  | _, None -> Error "r-edge tag is bottom (contradicts Lemma 56)"
  | Some la, Some ra ->
    let li = Act.loc la and ri = Act.loc ra in
    if not (Loc.equal li ri) then
      Error
        (Fmt.str "edge tags at different locations %a vs %a (contradicts Lemma 57)"
           Loc.pp li Loc.pp ri)
    else
      let td = Array.to_list va.Valence.tree.Tagged_tree.td in
      let faulty = Fd_event.faulty td in
      if Loc.Set.mem li faulty then
        Error
          (Fmt.str "critical location %a is faulty in t_D (contradicts Lemma 58)"
             Loc.pp li)
      else Ok li
