(* Unit tests for the I/O-automata substrate: automata, composition,
   executions, schedulers, fairness. *)

open Afd_ioa

(* A tiny counter automaton over int actions: outputs its successive
   values 1..limit. *)
type count_act = Tick of int | Reset

let counter ~name ~limit =
  let kind = function
    | Tick _ -> Some Automaton.Output
    | Reset -> Some Automaton.Input
  in
  let step s = function
    | Tick k when k = s + 1 && k <= limit -> Some k
    | Tick _ -> None
    | Reset -> Some 0
  in
  let task =
    { Automaton.task_name = "tick";
      fair = true;
      enabled = (fun s -> if s < limit then Some (Tick (s + 1)) else None);
    }
  in
  { Automaton.name; kind; start = 0; step; tasks = [ task ] }

(* An observer that records ticks as inputs. *)
let observer () =
  let kind = function
    | Tick _ -> Some Automaton.Input
    | Reset -> None
  in
  let step s = function Tick k -> Some (k :: s) | Reset -> None in
  { Automaton.name = "observer"; kind; start = []; step; tasks = [] }

let test_kinds () =
  let a = counter ~name:"c" ~limit:3 in
  Alcotest.(check bool) "tick is output" true (Automaton.is_output a (Tick 1));
  Alcotest.(check bool) "reset is input" true (Automaton.is_input a Reset);
  Alcotest.(check bool) "external" true
    (Automaton.is_external (Option.get (Automaton.kind_of a (Tick 2))))

let test_enabled_and_step () =
  let a = counter ~name:"c" ~limit:2 in
  Alcotest.(check int) "one enabled action" 1 (List.length (Automaton.enabled_actions a 0));
  let s = Automaton.step_exn a 0 (Tick 1) in
  Alcotest.(check int) "stepped" 1 s;
  Alcotest.(check bool) "tick 3 disabled" true (a.Automaton.step 1 (Tick 3) = None)

let test_hide () =
  let a = Automaton.hide (fun _ -> true) (counter ~name:"c" ~limit:2) in
  Alcotest.(check bool) "hidden output is internal" true (Automaton.is_internal a (Tick 1))

let test_rename () =
  let a =
    Automaton.rename
      ~to_:(fun x -> match x with Tick k -> Tick (k + 100) | Reset -> Reset)
      ~of_:(fun x ->
        match x with
        | Tick k when k > 100 -> Some (Tick (k - 100))
        | Tick _ -> None
        | Reset -> Some Reset)
      (counter ~name:"c" ~limit:2)
  in
  Alcotest.(check bool) "renamed output in signature" true (Automaton.is_output a (Tick 101));
  Alcotest.(check bool) "original output not in signature" true
    (Automaton.kind_of a (Tick 1) = None);
  Alcotest.(check bool) "renamed action enabled" true
    (List.mem (Tick 101) (Automaton.enabled_actions a a.Automaton.start))

let test_input_enabledness () =
  let a = counter ~name:"c" ~limit:2 in
  match Automaton.check_input_enabled a [ 0; 1; 2 ] [ Reset ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_composition_runs () =
  let comp =
    Composition.make ~name:"pair"
      [ Component.C (counter ~name:"c" ~limit:3); Component.C (observer ()) ]
  in
  let outcome = Scheduler.run comp Scheduler.default_cfg in
  let sched = List.map snd outcome.Scheduler.fired in
  Alcotest.(check (list int))
    "observer saw all ticks in order"
    [ 1; 2; 3 ]
    (List.filter_map (function Tick k -> Some k | Reset -> None) sched);
  Alcotest.(check bool) "quiescent at the end" true outcome.Scheduler.quiescent

let test_composition_compatibility () =
  let comp =
    Composition.make ~name:"bad"
      [ Component.C (counter ~name:"c1" ~limit:3); Component.C (counter ~name:"c2" ~limit:3) ]
  in
  match Composition.check_compatible comp ~probes:[ Tick 1; Reset ] with
  | Ok () -> Alcotest.fail "two controllers of Tick 1 should be rejected"
  | Error _ -> ()

let test_composed_signature () =
  let comp =
    Composition.make ~name:"pair"
      [ Component.C (counter ~name:"c" ~limit:1); Component.C (observer ()) ]
  in
  Alcotest.(check bool) "tick output of composition" true
    (Composition.kind_of comp (Tick 1) = Some Automaton.Output);
  Alcotest.(check bool) "reset input of composition" true
    (Composition.kind_of comp Reset = Some Automaton.Input)

let test_as_automaton_and_hiding () =
  let comp =
    Composition.make ~name:"pair"
      [ Component.C (counter ~name:"c" ~limit:2); Component.C (observer ()) ]
  in
  let flat = Composition.as_automaton comp in
  let hidden = Automaton.hide (fun _ -> true) flat in
  Alcotest.(check bool) "hidden" true (Automaton.is_internal hidden (Tick 1));
  (* the flattened automaton still runs *)
  let s1 = Automaton.step_exn flat flat.Automaton.start (Tick 1) in
  Alcotest.(check bool) "tick 2 enabled after tick 1" true
    (List.mem (Tick 2) (Automaton.enabled_actions flat s1))

let test_execution_ops () =
  let a = counter ~name:"c" ~limit:3 in
  let e = Execution.apply_schedule a 0 [ Tick 1; Tick 2 ] in
  (match e with
  | None -> Alcotest.fail "schedule should be applicable"
  | Some e ->
    Alcotest.(check int) "length" 2 (Execution.length e);
    Alcotest.(check int) "final" 2 (Execution.final e);
    Alcotest.(check bool) "is execution" true (Execution.is_execution_of a e));
  Alcotest.(check bool) "bad schedule inapplicable" true
    (Execution.apply_schedule a 0 [ Tick 2 ] = None)

let test_execution_concat () =
  let a = counter ~name:"c" ~limit:4 in
  let e1 = Option.get (Execution.apply_schedule a 0 [ Tick 1; Tick 2 ]) in
  let e2 =
    Option.get
      (Execution.apply_schedule a 2 [ Tick 3 ])
  in
  let e = Execution.concat e1 e2 in
  Alcotest.(check int) "concat length" 3 (Execution.length e);
  Alcotest.(check bool) "concat valid" true (Execution.is_execution_of a e)

let test_trace_ops () =
  let t = [ 1; 2; 3; 2; 1 ] in
  Alcotest.(check (list int)) "project" [ 2; 2 ] (Trace.project (fun x -> x = 2) t);
  Alcotest.(check bool) "subsequence" true
    (Trace.is_subsequence ~equal:Int.equal [ 1; 3; 1 ] t);
  Alcotest.(check bool) "not subsequence" false
    (Trace.is_subsequence ~equal:Int.equal [ 3; 3 ] t);
  Alcotest.(check bool) "prefix" true (Trace.is_prefix ~equal:Int.equal [ 1; 2 ] t);
  Alcotest.(check bool) "permutation" true
    (Trace.is_permutation ~equal:Int.equal [ 3; 2; 2; 1; 1 ] t);
  Alcotest.(check bool) "not permutation" false
    (Trace.is_permutation ~equal:Int.equal [ 3; 2; 2; 1 ] t);
  Alcotest.(check (option int)) "nth 1-based" (Some 1) (Trace.nth t 1);
  Alcotest.(check (option int)) "nth out of range" None (Trace.nth t 9);
  Alcotest.(check (list int)) "positions" [ 1; 3 ] (Trace.positions (fun x -> x = 2) t)

let test_scheduler_random_fair () =
  (* Two counters with disjoint action names must both make progress. *)
  let tag_rename tag a =
    Automaton.rename
      ~to_:(fun x -> match x with Tick k -> Tick ((tag * 1000) + k) | Reset -> Reset)
      ~of_:(fun x ->
        match x with
        | Tick k when k / 1000 = tag -> Some (Tick (k mod 1000))
        | Tick _ -> None
        | Reset -> None)
      a
  in
  let comp =
    Composition.make ~name:"two"
      [ Component.C (tag_rename 1 (counter ~name:"c1" ~limit:50));
        Component.C (tag_rename 2 (counter ~name:"c2" ~limit:50));
      ]
  in
  let cfg = { Scheduler.default_cfg with policy = Scheduler.Random 7; max_steps = 100 } in
  let outcome = Scheduler.run comp cfg in
  let report = Fairness.analyze comp (Rebuild.execution comp outcome) in
  Alcotest.(check bool) "fair prefix" true report.Fairness.fair_prefix;
  Alcotest.(check bool) "both progressed" true
    (List.for_all (fun (_, c) -> c > 0) report.Fairness.firings)

let test_scheduler_forced () =
  let comp =
    Composition.make ~name:"single" [ Component.C (counter ~name:"c" ~limit:100) ]
  in
  let cfg =
    { Scheduler.policy = Scheduler.Round_robin;
      max_steps = 10;
      stop_when_quiescent = true;
      forced = [];
    }
  in
  let outcome = Scheduler.run comp cfg in
  Alcotest.(check int) "ran to step budget" 10 (List.length outcome.Scheduler.fired)

let test_run_custom () =
  let comp =
    Composition.make ~name:"single" [ Component.C (counter ~name:"c" ~limit:100) ]
  in
  let outcome =
    Scheduler.run_custom comp ~max_steps:5 ~choose:(fun ~step:_ enabled ->
        match enabled with [] -> None | c :: _ -> Some c)
  in
  Alcotest.(check int) "custom ran 5" 5 (List.length outcome.Scheduler.fired)

let test_loc () =
  Alcotest.(check (list int)) "universe" [ 0; 1; 2 ] (Loc.universe ~n:3);
  Alcotest.(check (option int)) "min_not_in" (Some 1) (Loc.min_not_in ~n:3 (fun i -> i = 0));
  Alcotest.(check (option int)) "min_not_in all" None (Loc.min_not_in ~n:2 (fun _ -> true));
  Alcotest.check_raises "universe 0" (Invalid_argument "Loc.universe: n must be positive")
    (fun () -> ignore (Loc.universe ~n:0))

let suite =
  [ Alcotest.test_case "loc basics" `Quick test_loc;
    Alcotest.test_case "signature kinds" `Quick test_kinds;
    Alcotest.test_case "enabled and step" `Quick test_enabled_and_step;
    Alcotest.test_case "hiding" `Quick test_hide;
    Alcotest.test_case "renaming" `Quick test_rename;
    Alcotest.test_case "input enabledness probe" `Quick test_input_enabledness;
    Alcotest.test_case "composition runs and matches actions" `Quick test_composition_runs;
    Alcotest.test_case "composition compatibility check" `Quick test_composition_compatibility;
    Alcotest.test_case "composed signature" `Quick test_composed_signature;
    Alcotest.test_case "as_automaton and hiding" `Quick test_as_automaton_and_hiding;
    Alcotest.test_case "execution operations" `Quick test_execution_ops;
    Alcotest.test_case "execution concat" `Quick test_execution_concat;
    Alcotest.test_case "trace operations" `Quick test_trace_ops;
    Alcotest.test_case "random scheduler is fair" `Quick test_scheduler_random_fair;
    Alcotest.test_case "scheduler respects budget" `Quick test_scheduler_forced;
    Alcotest.test_case "custom adversarial scheduler" `Quick test_run_custom;
  ]
