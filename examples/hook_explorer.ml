(* Explore the tree of executions R^{t_D} (Section 8) for 2-process
   flooding consensus, locate a hook (Section 9.6), and print it.

     dune exec examples/hook_explorer.exe
*)

open Afd_ioa
open Afd_core
open Afd_system
module T = Afd_tree

let pp_action fmt = function None -> Format.pp_print_string fmt "_|_" | Some a -> Act.pp fmt a

let () =
  let n = 2 and f = 1 in
  let td = T.Tree_system.td_one_crash ~n ~crash:1 ~pre:1 ~post:3 in
  Format.printf "t_D = %a@." (Fd_event.pp_trace Act.pp_fd_payload) td;

  let sys = T.Tree_system.flood_system ~n ~f in
  let tree =
    match
      T.Tagged_tree.build ~system:sys ~detector:Afd_consensus.Flood_p.detector_name ~td
        ~max_nodes:3_000_000
    with
    | Ok t -> t
    | Error e -> failwith e
  in
  Format.printf "quotient graph: %d nodes, %d labels per node@."
    (T.Tagged_tree.size tree)
    (List.length (T.Tagged_tree.labels tree));

  let va = T.Valence.classify tree in
  Format.printf "valence census: bivalent=%d, 0-valent=%d, 1-valent=%d (root: %a)@."
    (T.Valence.count va T.Valence.Bivalent)
    (T.Valence.count va (T.Valence.Univalent false))
    (T.Valence.count va (T.Valence.Univalent true))
    T.Valence.pp va.T.Valence.of_node.(0);

  let hooks = T.Hook.find_all va in
  Format.printf "hooks found: %d@." (List.length hooks);

  (match hooks with
  | [] -> Format.printf "no hooks - t_D too short?@."
  | h :: _ ->
    Format.printf "@.--- first hook (N, l, r) ---@.";
    Format.printf "  N  = node %d (bivalent)@." h.T.Hook.node;
    Format.printf "  l  = %a with action tag %a  -> %d-valent child@."
      T.Tagged_tree.pp_label h.T.Hook.l pp_action h.T.Hook.l_action
      (Bool.to_int h.T.Hook.v);
    Format.printf "  r  = %a with action tag %a@." T.Tagged_tree.pp_label h.T.Hook.r
      pp_action h.T.Hook.r_action;
    Format.printf "  l-child of r-child is %d-valent@." (Bool.to_int (not h.T.Hook.v));
    (match T.Hook.check_theorem59 va h with
    | Ok loc ->
      Format.printf
        "  critical location: %a - live in t_D, as Theorem 59 requires:@." Loc.pp loc;
      Format.printf
        "  the step that breaks bivalence happens at a live location.@."
    | Error e -> Format.printf "  THEOREM 59 VIOLATED: %s@." e));

  (* The bivalence horizon: even a fully adversarial scheduler runs out
     of bivalence-preserving moves - the AFD's information forces a
     decision (contrast with FLP's forever-bivalent adversary). *)
  let u = T.Flp.unconstrained va ~max_steps:5000 in
  Format.printf "@.adversary preserving bivalence survives %d steps before exhausting.@."
    u.T.Flp.survived
