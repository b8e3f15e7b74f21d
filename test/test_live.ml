(* Tests for the fairness-aware liveness analysis (lib/analysis/live.ml)
   and its consumers.

   The load-bearing properties: the Tarjan condensation classifies the
   canonical shapes correctly (a pure cycle is one cycle-capable SCC,
   a chain is all-singleton with a fair stop only at its end) and
   agrees exactly with the list-based reference in list_live.ml on the
   model checker's graphs, the lint registry and random graphs; the
   SCC-powered rules fire on their fixtures and stay silent on the
   harmless twin; every catalog probe pairs its state equality with a
   congruent hash (no silent single-bucket fallback); the two
   liveness-broken detectors are refuted with the right kind of lasso;
   and — the qcheck property — every lasso the model checker reports
   replays through the online monitor with the refuted clause still
   non-Sat after k > 1 unrollings of its cycle, across fault-pattern
   universes. *)

open Afd_ioa
open Afd_core
open Afd_analysis

(* [Live.t] is monomorphic, so the analysis of an existentially packed
   registry entry can escape the match. *)
let live_of_entry = function
  | Registry.Automaton (a, p) -> Live.analyze a (Space.explore a p)
  | Registry.Composition (c, p) ->
    let a = Composition.as_automaton c in
    Live.analyze a (Space.explore a p)

(* --- condensation on the canonical shapes --- *)

let test_condense_cycle () =
  (* the harmless spinner: two states, one fair task looping them *)
  let live = live_of_entry Fixtures.harmless_cycle in
  let cyclic =
    Array.to_list (Live.sccs live)
    |> List.filter (fun s -> s.Live.internal <> [])
  in
  (match cyclic with
  | [ scc ] ->
    Alcotest.(check (list int)) "both states in the cycle SCC" [ 0; 1 ]
      scc.Live.members;
    Alcotest.(check (list string)) "no unmet obligation" [] scc.Live.unmet;
    Alcotest.(check (list int)) "spin is always enabled: no fair stop" []
      scc.Live.fair_stops
  | sccs -> Alcotest.failf "expected 1 cycle-capable SCC, got %d" (List.length sccs));
  Alcotest.(check bool) "fair cycle through state 0" true
    (Live.fair_cycle_through live 0);
  Alcotest.(check bool) "fair cycle through state 1" true
    (Live.fair_cycle_through live 1);
  Alcotest.(check bool) "state 0 is not a fair stop" false (Live.fair_stop_at live 0)

let test_condense_chain () =
  (* the well-formed counter 0->1->2->3: only task edges count, so the
     Reset back-edges (probed inputs) must not merge the chain *)
  let a = Fixtures.counter ~name:"chain" ~limit:3 in
  let p =
    Probe.make ~pp_action:Fmt.(any "<act>")
      [ Fixtures.Tick 1; Fixtures.Tick 2; Fixtures.Tick 3; Fixtures.Reset ]
  in
  let sp = Space.explore a p in
  Alcotest.(check bool) "chain exhausted" true (sp.Space.verdict = Space.Exhausted);
  let live = Live.analyze a sp in
  Alcotest.(check int) "four singleton SCCs" 4 (Live.scc_count live);
  Array.iter
    (fun scc ->
      Alcotest.(check (list int)) "no internal task edge" [] scc.Live.internal)
    (Live.sccs live);
  List.iter
    (fun si ->
      Alcotest.(check bool)
        (Printf.sprintf "no fair cycle through state %d" si)
        false
        (Live.fair_cycle_through live si))
    [ 0; 1; 2; 3 ];
  (* the tick task is enabled until the cap: only the last state (the
     counter at its limit, discovered last by BFS) is a fair stop *)
  List.iter
    (fun si ->
      Alcotest.(check bool)
        (Printf.sprintf "fair stop exactly at the cap (state %d)" si)
        (si = 3)
        (Live.fair_stop_at live si))
    [ 0; 1; 2; 3 ]

(* --- the flat condensation against the list-based reference --- *)

let scc_testable =
  Alcotest.testable
    (fun ppf s ->
      Fmt.pf ppf "SCC #%d members=%a internal=%a terminal=%b unmet=%a witness=%a stops=%a"
        s.Live.id
        Fmt.(Dump.list int) s.Live.members
        Fmt.(Dump.list int) s.Live.internal
        s.Live.terminal
        Fmt.(Dump.list string) s.Live.unmet
        Fmt.(Dump.list (Dump.pair string int)) s.Live.disabled_witness
        Fmt.(Dump.list int) s.Live.fair_stops)
    ( = )

(* [Live.analyze] and [List_live.analyze] agree on one explored graph:
   SCC ids, the fair-cycle and fair-stop predicates on every state
   (asked before any record is built), and every record. *)
let agrees_with_reference name aut sp =
  let live = Live.analyze aut sp in
  let ref_ = List_live.analyze aut sp in
  let nstates = Array.length sp.Space.states in
  Alcotest.(check int) (name ^ ": SCC count") (Array.length ref_.List_live.sccs)
    (Live.scc_count live);
  for i = 0 to nstates - 1 do
    if Live.scc_of live i <> ref_.List_live.scc_of.(i) then
      Alcotest.failf "%s: state %d in SCC %d, reference %d" name i (Live.scc_of live i)
        ref_.List_live.scc_of.(i);
    if Live.fair_cycle_through live i <> List_live.fair_cycle_through ref_ i then
      Alcotest.failf "%s: fair_cycle_through %d differs from the reference" name i;
    if Live.fair_stop_at live i <> List_live.fair_stop_at ref_ i then
      Alcotest.failf "%s: fair_stop_at %d differs from the reference" name i
  done;
  Alcotest.(check (list string)) (name ^ ": fair tasks") ref_.List_live.fair_tasks
    (Live.fair_tasks live);
  Alcotest.(check (array scc_testable)) (name ^ ": SCC records") ref_.List_live.sccs
    (Live.sccs live)

(* Every CHK subject's unreduced product graph, the one [Mc]'s
   liveness stage condenses, at n = 3 and n = 4. *)
let test_reference_chk () =
  List.iter
    (fun (Afd_bench.Check.S { id; detector; spec; _ }) ->
      List.iter
        (fun n ->
          match Mc.unreduced_view ~n spec ~detector:(detector n) with
          | Ok (a, sp, _) -> agrees_with_reference (Printf.sprintf "%s n=%d" id n) a sp
          | Error e -> Alcotest.failf "%s n=%d: %s" id n e)
        [ 3; 4 ])
    (Afd_bench.Check.subjects @ Afd_bench.Check.liveness_subjects)

(* Random task graphs: states [0 ..< m], task [j] moves state [s] to
   [succ.(j).(s)] (disabled where that is -1), a probed environment
   action adds edges the condensation must ignore, and tasks may share
   a name (obligations are met per name).  Long cycles and nested SCCs
   exercise every Tarjan step the catalog's graphs may not. *)
let random_graph_prop =
  let gen =
    let open QCheck2.Gen in
    let* m = int_range 1 24 in
    let* k = int_range 1 4 in
    let* names = int_range 1 k in
    let* fair = list_repeat k bool in
    let* succ =
      list_repeat k (array_repeat m (frequency [ (1, pure (-1)); (3, int_bound (m - 1)) ]))
    in
    pure (m, names, fair, succ)
  in
  let print (m, names, fair, succ) =
    Printf.sprintf "m=%d names=%d fair=[%s] succ=[%s]" m names
      (String.concat ";" (List.map string_of_bool fair))
      (String.concat " | "
         (List.map
            (fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
            succ))
  in
  QCheck2.Test.make ~count:300 ~name:"condensation = list reference on random graphs"
    ~print gen (fun (m, names, fair, succ) ->
      let env = (-1, 0) in
      let a =
        { Automaton.name = "random";
          kind = (fun (j, _) -> Some (if j < 0 then Automaton.Input else Automaton.Output));
          start = 0;
          step =
            (fun s (j, d) ->
              if j < 0 then Some (((s * 7) + 1) mod m)
              else if (List.nth succ j).(s) = d then Some d
              else None);
          tasks =
            List.mapi
              (fun j (fair, tbl) ->
                { Automaton.task_name = Printf.sprintf "t%d" (j mod names);
                  fair;
                  enabled = (fun s -> if tbl.(s) < 0 then None else Some (j, tbl.(s)));
                })
              (List.combine fair succ);
        }
      in
      let p = Probe.make ~hash_state:Fun.id ~max_states:64 [ env ] in
      agrees_with_reference (print (m, names, fair, succ)) a (Space.explore a p);
      true)

(* Every lint-registry subject, and the graph-rule fixtures. *)
let test_reference_registry () =
  let entry name = function
    | Registry.Automaton (a, p) -> agrees_with_reference name a (Space.explore a p)
    | Registry.Composition (c, p) ->
      let a = Composition.as_automaton c in
      agrees_with_reference name a (Space.explore a p)
  in
  List.iter
    (fun { Registry.origin; entry = e } ->
      entry (Printf.sprintf "%s(%s)" (Registry.entry_name e) origin) e)
    (Catalog.items ());
  List.iter (fun (id, e) -> entry ("fixture " ^ id) e) Fixtures.mc;
  entry "harmless cycle" Fixtures.harmless_cycle

(* --- the SCC-powered rules, against fixture and harmless twin --- *)

let rule_findings id entry =
  let rules =
    match Rule.find (Rules.all @ Rules.mc) id with
    | Some r -> [ r ]
    | None -> Alcotest.failf "missing rule %s" id
  in
  let report = Engine.run_entry ~rules ~origin:"fixture" entry in
  List.filter (fun f -> String.equal f.Report.rule id) report.Report.findings

let test_livelock_rule () =
  (match Fixtures.find "livelock" with
  | None -> Alcotest.fail "missing livelock fixture"
  | Some entry ->
    Alcotest.(check bool) "livelock fires on the internal spinner" true
      (rule_findings "livelock" entry <> []));
  Alcotest.(check int) "livelock silent on the output spinner" 0
    (List.length (rule_findings "livelock" Fixtures.harmless_cycle))

let test_unsat_fairness_rule () =
  match Fixtures.find "unsatisfiable-fairness-obligation" with
  | None -> Alcotest.fail "missing unsat-fairness fixture"
  | Some entry ->
    (match rule_findings "unsatisfiable-fairness-obligation" entry with
    | [ f ] ->
      Alcotest.(check bool) "error severity" true (f.Report.severity = Report.Error);
      Alcotest.(check (option string)) "names the pinned task" (Some "pinned")
        f.Report.where.Report.task
    | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    Alcotest.(check int) "silent on the harmless spinner" 0
      (List.length
         (rule_findings "unsatisfiable-fairness-obligation" Fixtures.harmless_cycle))

let test_race_pair_dedup () =
  (* the jumpy fixture enables inc and dbl concurrently: symmetric
     dedup must report the unordered pair exactly once per state set,
     not once per ordering *)
  match Fixtures.find "race-pair" with
  | None -> Alcotest.fail "missing race-pair fixture"
  | Some entry ->
    let fs = rule_findings "race-pair" entry in
    Alcotest.(check int) "one finding for the one unordered pair" 1
      (List.length fs);
    List.iter
      (fun f ->
        Alcotest.(check (option string)) "keyed by the lexicographic task"
          (Some "dbl") f.Report.where.Report.task)
      fs

(* --- no catalog probe on the single-bucket fallback --- *)

let test_catalog_probes_hashed () =
  List.iter
    (fun { Registry.origin; entry } ->
      let check_probe name hashed =
        Alcotest.(check bool)
          (Printf.sprintf "%s(%s) pairs equal_state with a hash" name origin)
          true hashed
      in
      match entry with
      | Registry.Automaton (a, p) ->
        check_probe a.Automaton.name (p.Probe.hash_state <> None)
      | Registry.Composition (c, p) ->
        check_probe (Composition.name c) (p.Probe.hash_state <> None))
    (Catalog.items ())

(* --- lasso refutations, directly through Mc --- *)

let test_refutation_kinds () =
  let n = 3 in
  (match
     Mc.check_spec ~n Omega.spec ~detector:(Afd_automata.fd_flip_flop ~n)
   with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "flipflop: safety still holds" true o.Mc.safety_proved;
    Alcotest.(check bool) "flipflop: not proved" false o.Mc.proved;
    (match o.Mc.lassos with
    | [ l ] ->
      Alcotest.(check bool) "flipflop: a fair cycle" true (l.Mc.l_kind = `Cycle);
      Alcotest.(check string) "flipflop: stable-leader" "stable-leader" l.Mc.l_clause;
      Alcotest.(check bool) "flipflop: confirmed" true l.Mc.l_confirmed
    | ls -> Alcotest.failf "flipflop: expected 1 lasso, got %d" (List.length ls)));
  match Mc.check_spec ~n Perfect.spec ~detector:(Afd_automata.fd_silent ~n) with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "silent: lassos found" true (o.Mc.lassos <> []);
    List.iter
      (fun l ->
        Alcotest.(check bool)
          (l.Mc.l_clause ^ ": a fair stop with an empty cycle")
          true
          (l.Mc.l_kind = `Stop && l.Mc.l_cycle = []))
      o.Mc.lassos

(* --- qcheck: lassos replay with the violation latched --- *)

(* Replay stem + k unrollings of each reported lasso through a fresh
   online monitor and demand the refuted clause's verdict stays
   non-Sat: the lasso is a real infinite counterexample, not an
   artifact of the product construction.  [k] ranges over 2..4 — the
   checker itself only confirms k = 1..3. *)
let lassos_latch spec detector ~crashable ~k =
  let n = 3 in
  match Mc.check_spec ~crashable ~n spec ~detector with
  | Error e -> QCheck2.Test.fail_reportf "check_spec: %s" e
  | Ok o ->
    List.for_all
      (fun l ->
        let m = Afd.monitor spec ~n in
        List.iter (Afd_prop.Monitor.observe m) l.Mc.l_stem;
        let unroll = if l.Mc.l_cycle = [] then 0 else k in
        for _ = 1 to unroll do
          List.iter (Afd_prop.Monitor.observe m) l.Mc.l_cycle
        done;
        match List.assoc_opt l.Mc.l_clause (Afd_prop.Monitor.clause_verdicts m) with
        | Some (Verdict.Violated _ | Verdict.Undecided _) -> true
        | Some Verdict.Sat | None -> false)
      o.Mc.lassos

let lasso_replay_prop =
  let gen = QCheck2.Gen.(triple bool (int_bound 7) (int_range 2 4)) in
  let print (ff, mask, k) =
    Printf.sprintf "subject=%s crashable-mask=%d k=%d"
      (if ff then "flipflop/Omega" else "silent/P")
      mask k
  in
  QCheck2.Test.make ~count:24 ~name:"every lasso replays: clause non-Sat after k>1 unrollings"
    ~print gen
    (fun (use_flipflop, mask, k) ->
      let crashable =
        List.fold_left
          (fun acc i -> if mask land (1 lsl i) <> 0 then Loc.Set.add i acc else acc)
          Loc.Set.empty [ 0; 1; 2 ]
      in
      if use_flipflop then
        lassos_latch Omega.spec (Afd_automata.fd_flip_flop ~n:3) ~crashable ~k
      else lassos_latch Perfect.spec (Afd_automata.fd_silent ~n:3) ~crashable ~k)

(* --- no race between two orders of building one location set --- *)

(* Crashing p0 then p1 builds the crash set {p0, p1} in the other order
   from crashing p1 then p0, and two channels delivering to one
   receiver add to its sets in either order.  Equal location sets are
   equal values, so these diamonds close and neither pair is a race;
   the rule still reports the genuine ones (a crash racing a heartbeat
   cycle). *)
let test_no_set_order_races () =
  let report =
    Engine.run ~rules:(Option.to_list (Rule.find Rules.mc "race-pair")) ~max_states:4000
      (List.filter
         (fun it ->
           List.mem (Registry.entry_name it.Registry.entry) [ "fd-omega-system"; "net" ])
         (Catalog.items ()))
  in
  let races =
    List.filter_map
      (fun f ->
        if String.equal f.Report.rule "race-pair" then
          Scanf.sscanf f.Report.message "tasks %s and %s are both" (fun a b ->
              Some (f.Report.where.Report.name, a, b))
        else None)
      report.Report.findings
  in
  let receiver t = Scanf.sscanf_opt t "chan_p%d_p%d/deliver" (fun _ r -> r) in
  let set_order (name, a, b) =
    match name with
    | "fd-omega-system" ->
      String.starts_with ~prefix:"crash/" a && String.starts_with ~prefix:"crash/" b
    | _ -> Option.is_some (receiver a) && receiver a = receiver b
  in
  List.iter
    (fun ((name, a, b) as r) ->
      if set_order r then Alcotest.failf "%s: %s and %s reported as a race" name a b)
    races;
  Alcotest.(check bool) "net still has genuine races" true
    (List.exists (fun (name, _, _) -> String.equal name "net") races)

let suite =
  [ Alcotest.test_case "condensation: a fair cycle is one SCC" `Quick
      test_condense_cycle;
    Alcotest.test_case "condensation: a chain is singletons + fair stop" `Quick
      test_condense_chain;
    Alcotest.test_case "condensation = list reference on every CHK subject, n=3,4" `Quick
      test_reference_chk;
    Alcotest.test_case "condensation = list reference on the lint registry" `Quick
      test_reference_registry;
    QCheck_alcotest.to_alcotest random_graph_prop;
    Alcotest.test_case "livelock rule: fires on internal, silent on output" `Quick
      test_livelock_rule;
    Alcotest.test_case "unsat-fairness rule: fires on the pinned spinner" `Quick
      test_unsat_fairness_rule;
    Alcotest.test_case "race-pair: symmetric pairs deduplicated" `Quick
      test_race_pair_dedup;
    Alcotest.test_case "catalog probes: no single-bucket fallback" `Quick
      test_catalog_probes_hashed;
    Alcotest.test_case "Mc refutes flipflop with a cycle, silent with a stop" `Quick
      test_refutation_kinds;
    QCheck_alcotest.to_alcotest lasso_replay_prop;
    Alcotest.test_case "race-pair: no race between orders of one location set" `Quick
      test_no_set_order_races;
  ]
