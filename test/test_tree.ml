(* Execution trees (E10/E11/E12): tagged-tree invariants, valence,
   hooks and Theorem 59, and the bivalence-horizon experiment. *)

open Afd_ioa
module T = Afd_tree

let build_tree ~n ~f ~td =
  let sys = T.Tree_system.flood_system ~n ~f in
  match
    T.Tagged_tree.build ~system:sys ~detector:Afd_consensus.Flood_p.detector_name ~td
      ~max_nodes:3_000_000
  with
  | Ok tree -> tree
  | Error e -> Alcotest.fail e

let crash1_tree () =
  build_tree ~n:2 ~f:1 ~td:(T.Tree_system.td_one_crash ~n:2 ~crash:1 ~pre:1 ~post:3)

let nocrash_tree () = build_tree ~n:2 ~f:1 ~td:(T.Tree_system.td_no_crash ~n:2 ~rounds:3)

let test_root_and_labels () =
  let tree = crash1_tree () in
  Alcotest.(check bool) "nonempty" true (T.Tagged_tree.size tree > 100);
  (* labels: FD + 2 processes + 2 channels + 4 env tasks *)
  Alcotest.(check int) "label count" 9 (List.length (T.Tagged_tree.labels tree));
  let root = T.Tagged_tree.node tree 0 in
  Alcotest.(check int) "root consumed nothing" 0 root.T.Tagged_tree.pos

let test_edges_well_formed () =
  let tree = crash1_tree () in
  T.Tagged_tree.iter
    (fun node ->
      Array.iter
        (fun (_, act, dst) ->
          match act with
          | None ->
            Alcotest.(check int) "bottom edge loops" node.T.Tagged_tree.id dst
          | Some _ ->
            Alcotest.(check bool) "successor exists" true
              (dst >= 0 && dst < T.Tagged_tree.size tree))
        node.T.Tagged_tree.edges)
    tree

let test_fd_edges_consume_td () =
  let tree = crash1_tree () in
  T.Tagged_tree.iter
    (fun node ->
      Array.iter
        (fun (label, act, dst) ->
          if label = T.Tagged_tree.FD && act <> None then begin
            let succ = T.Tagged_tree.node tree dst in
            Alcotest.(check int) "pos advances" (node.T.Tagged_tree.pos + 1)
              succ.T.Tagged_tree.pos
          end)
        node.T.Tagged_tree.edges)
    tree

let test_prop51_root_bivalent () =
  List.iter
    (fun tree ->
      let va = T.Valence.classify tree in
      Alcotest.(check bool) "root bivalent (Prop 51)" true (T.Valence.root_bivalent va))
    [ crash1_tree (); nocrash_tree () ]

let test_no_blocked_nodes () =
  let va = T.Valence.classify (crash1_tree ()) in
  Alcotest.(check int) "no blocked nodes (Prop 48)" 0 (T.Valence.count va T.Valence.Blocked)

let test_agreement_and_lemma52 () =
  let va = T.Valence.classify (crash1_tree ()) in
  (match T.Valence.agreement_in_graph va with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match T.Valence.univalent_stable va with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_hooks_exist_and_theorem59 () =
  let va = T.Valence.classify (crash1_tree ()) in
  let hooks = T.Hook.find_all va in
  Alcotest.(check bool) "hooks exist (Lemma 55)" true (hooks <> []);
  List.iter
    (fun h ->
      match T.Hook.check_theorem59 va h with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    hooks;
  (* with p1 faulty in t_D, every critical location must be p0 *)
  List.iter
    (fun h ->
      match T.Hook.critical_location h with
      | Some 0 -> ()
      | Some l -> Alcotest.failf "critical location %a is not the live p0" Loc.pp l
      | None -> Alcotest.fail "hook without critical location")
    hooks

let test_hooks_nocrash () =
  let va = T.Valence.classify (nocrash_tree ()) in
  let hooks = T.Hook.find_all va in
  Alcotest.(check bool) "hooks exist" true (hooks <> []);
  List.iter
    (fun h ->
      match T.Hook.check_theorem59 va h with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    hooks

let test_bivalence_horizon () =
  let va = T.Valence.classify (crash1_tree ()) in
  let u = T.Flp.unconstrained va ~max_steps:5000 in
  let fw = T.Flp.fair_windowed va ~window:12 ~max_steps:5000 in
  (* every adversary runs out of bivalent moves: the AFD-driven system
     always decides (contrast with FLP, where a bivalence-preserving
     adversary exists forever for any async consensus protocol) *)
  Alcotest.(check bool) "unconstrained adversary exhausts" true u.T.Flp.exhausted;
  Alcotest.(check bool) "fair adversary exhausts" true fw.T.Flp.exhausted;
  (* both horizons are tiny compared to the graph diameter: bivalence
     cannot be sustained (greedy walks are not optimal, so the two
     horizons are not comparable to each other in general) *)
  Alcotest.(check bool) "horizons are short" true
    (u.T.Flp.survived < 50 && fw.T.Flp.survived < 50)

let test_walk_is_execution () =
  (* exe(N) reconstruction (Prop 29): replay the action sequence of a
     sampled walk on the system composition. *)
  let tree = crash1_tree () in
  let sys = tree.T.Tagged_tree.system in
  (* follow first non-bottom edges for a while *)
  let rec walk id acc budget =
    if budget = 0 then List.rev acc
    else
      let node = T.Tagged_tree.node tree id in
      match
        Array.to_list node.T.Tagged_tree.edges
        |> List.find_opt (fun (_, act, _) -> act <> None)
      with
      | None -> List.rev acc
      | Some (_, Some act, dst) -> walk dst (act :: acc) (budget - 1)
      | Some (_, None, _) -> List.rev acc
  in
  let acts = walk 0 [] 25 in
  let aut = Afd_ioa.Composition.as_automaton sys in
  match Afd_ioa.Execution.apply_schedule aut aut.Afd_ioa.Automaton.start acts with
  | Some _ -> ()
  | None -> Alcotest.fail "walk is not an execution of the system"

let test_theorem41 () =
  (* the two t_D's share exactly their first round of empty outputs
     (length 2); the trees must agree up to depth 2 and differ at the
     depth that exposes the third FD event *)
  let t1 = crash1_tree () and t2 = nocrash_tree () in
  Alcotest.(check bool) "equal up to common-prefix depth" true
    (T.Tagged_tree.equal_upto t1 t2 ~depth:2);
  Alcotest.(check bool) "differ once the FD sequences diverge" false
    (T.Tagged_tree.equal_upto t1 t2 ~depth:3);
  (* reflexivity at a deeper depth *)
  Alcotest.(check bool) "reflexive" true (T.Tagged_tree.equal_upto t1 t1 ~depth:6)

let test_similar_mod_i_and_lemma39 () =
  let tree = crash1_tree () in
  let ctx = T.Similar.make_ctx tree ~n:2 in
  let pairs = T.Similar.candidate_pairs ctx ~i:1 ~limit:120 in
  Alcotest.(check bool) "found related pairs" true (List.length pairs > 10);
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) (Printf.sprintf "(%d,%d) similar-mod-p1" a b) true
        (T.Similar.similar_mod ctx ~i:1 a b);
      match T.Similar.check_lemma39 ctx ~i:1 a b with
      | Ok () -> ()
      | Error e -> Alcotest.failf "lemma 39 at (%d,%d): %s" a b e)
    pairs

let test_theorem40_descendant_chains () =
  (* Theorem 40 via iteration: starting from a related pair, walking
     the same label sequence on both sides preserves one of Lemma 39's
     disjuncts at every step; follow the N'-side only when the N-side
     alone does not stay related. *)
  let tree = crash1_tree () in
  let ctx = T.Similar.make_ctx tree ~n:2 in
  let child id label =
    Array.to_list (T.Tagged_tree.node tree id).T.Tagged_tree.edges
    |> List.find_map (fun (l, _, dst) -> if l = label then Some dst else None)
    |> Option.get
  in
  match T.Similar.candidate_pairs ctx ~i:1 ~limit:5 with
  | [] -> Alcotest.fail "no pairs"
  | (a0, b0) :: _ ->
    let labels = T.Tagged_tree.labels tree in
    let rec walk a b depth =
      if depth = 0 then ()
      else begin
        List.iter
          (fun l ->
            let al = child a l in
            Alcotest.(check bool) "lemma 39 disjunction" true
              (T.Similar.similar_mod ctx ~i:1 al b
              || T.Similar.similar_mod ctx ~i:1 al (child b l)))
          labels;
        (* descend along the first label that keeps the pair related *)
        let next =
          List.find_map
            (fun l ->
              let al = child a l in
              if T.Similar.similar_mod ctx ~i:1 al (child b l) then Some (al, child b l)
              else if T.Similar.similar_mod ctx ~i:1 al b then Some (al, b)
              else None)
            labels
        in
        match next with
        | Some (a', b') -> walk a' b' (depth - 1)
        | None -> Alcotest.fail "no related descendant (contradicts Theorem 40)"
      end
    in
    walk a0 b0 6

let test_symmetry_across_fault_patterns () =
  (* flipping which location crashes in t_D yields a tree of identical
     shape (the system is symmetric in p0/p1), with the critical
     locations flipped *)
  let t1 = crash1_tree () in
  let t0 = build_tree ~n:2 ~f:1 ~td:(T.Tree_system.td_one_crash ~n:2 ~crash:0 ~pre:1 ~post:3) in
  Alcotest.(check int) "same node count"
    (T.Tagged_tree.size t1)
    (T.Tagged_tree.size t0);
  let hooks tree =
    let va = T.Valence.classify tree in
    T.Hook.find_all va
  in
  Alcotest.(check int) "same hook count" (List.length (hooks t1)) (List.length (hooks t0));
  let crits tree =
    List.filter_map T.Hook.critical_location (hooks tree) |> List.sort_uniq Loc.compare
  in
  Alcotest.(check (list int)) "p1-crash tree: critical = p0" [ 0 ] (crits t1);
  Alcotest.(check (list int)) "p0-crash tree: critical = p1" [ 1 ] (crits t0)

let test_budget_exceeded () =
  let sys = T.Tree_system.flood_system ~n:2 ~f:1 in
  match
    T.Tagged_tree.build ~system:sys ~detector:Afd_consensus.Flood_p.detector_name
      ~td:(T.Tree_system.td_one_crash ~n:2 ~crash:1 ~pre:1 ~post:3)
      ~max_nodes:10
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tiny budget must overflow"

(* Every t_D the tests above build at n = 2. *)
let tds_n2 =
  [ ("p1 crashes", T.Tree_system.td_one_crash ~n:2 ~crash:1 ~pre:1 ~post:3);
    ("p0 crashes", T.Tree_system.td_one_crash ~n:2 ~crash:0 ~pre:1 ~post:3);
    ("crash-free", T.Tree_system.td_no_crash ~n:2 ~rounds:3);
  ]

let test_matches_reference_builder () =
  (* The core's exploration against the private-BFS reference builder
     (test/list_tree.ml): same node ids, positions, configurations and
     (label, tag, successor) edges in label order, ⊥ self-loops
     included. *)
  List.iter
    (fun (name, td) ->
      let tree = build_tree ~n:2 ~f:1 ~td in
      let reference =
        match
          List_tree.build
            ~system:(T.Tree_system.flood_system ~n:2 ~f:1)
            ~detector:Afd_consensus.Flood_p.detector_name ~td ~max_nodes:3_000_000
        with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check int) (name ^ ": node count")
        (Array.length reference.List_tree.nodes)
        (T.Tagged_tree.size tree);
      Array.iter
        (fun (r : List_tree.node) ->
          let node = T.Tagged_tree.node tree r.id in
          let same_edge (l1, a1, d1) (l2, a2, d2) =
            l1 = l2 && Option.equal Afd_system.Act.equal a1 a2 && d1 = d2
          in
          if
            not
              (node.T.Tagged_tree.id = r.id
              && node.T.Tagged_tree.pos = r.pos
              && Composition.equal_state node.T.Tagged_tree.config r.config
              && Array.length node.T.Tagged_tree.edges = Array.length r.edges
              && Array.for_all2 same_edge node.T.Tagged_tree.edges r.edges)
          then Alcotest.failf "%s: node %d differs from the reference builder" name r.id)
        reference.List_tree.nodes)
    tds_n2

let test_budget_boundary () =
  (* [max_nodes] is exact: the 1 826-node tree fits a budget of 1 826
     and overflows one of 1 825, with the cap named in the error. *)
  let build max_nodes =
    T.Tagged_tree.build
      ~system:(T.Tree_system.flood_system ~n:2 ~f:1)
      ~detector:Afd_consensus.Flood_p.detector_name
      ~td:(T.Tree_system.td_one_crash ~n:2 ~crash:1 ~pre:1 ~post:3)
      ~max_nodes
  in
  (match build 1826 with
  | Ok tree -> Alcotest.(check int) "fits its own size" 1826 (T.Tagged_tree.size tree)
  | Error e -> Alcotest.fail e);
  match build 1825 with
  | Error e ->
    Alcotest.(check string) "names the cap" "Tagged_tree.build: more than 1825 quotient nodes" e
  | Ok _ -> Alcotest.fail "a budget one below the tree's size must overflow"

let suite =
  [ Alcotest.test_case "root and labels" `Quick test_root_and_labels;
    Alcotest.test_case "edges well-formed" `Quick test_edges_well_formed;
    Alcotest.test_case "FD edges consume t_D" `Quick test_fd_edges_consume_td;
    Alcotest.test_case "Prop 51: root bivalent" `Quick test_prop51_root_bivalent;
    Alcotest.test_case "Prop 48: no blocked nodes" `Quick test_no_blocked_nodes;
    Alcotest.test_case "agreement + Lemma 52 in graph" `Quick test_agreement_and_lemma52;
    Alcotest.test_case "Theorem 59 on every hook (crash pattern)" `Quick
      test_hooks_exist_and_theorem59;
    Alcotest.test_case "Theorem 59 (crash-free pattern)" `Quick test_hooks_nocrash;
    Alcotest.test_case "bivalence horizon" `Quick test_bivalence_horizon;
    Alcotest.test_case "Prop 29: walks are executions" `Quick test_walk_is_execution;
    Alcotest.test_case "Theorem 41: common prefix, common tree" `Quick test_theorem41;
    Alcotest.test_case "similar-modulo-i + Lemma 39" `Quick test_similar_mod_i_and_lemma39;
    Alcotest.test_case "Theorem 40: related descendants" `Quick test_theorem40_descendant_chains;
    Alcotest.test_case "fault-pattern symmetry" `Quick test_symmetry_across_fault_patterns;
    Alcotest.test_case "node budget respected" `Quick test_budget_exceeded;
    Alcotest.test_case "matches the reference builder" `Quick test_matches_reference_builder;
    Alcotest.test_case "node budget is exact" `Quick test_budget_boundary;
  ]
