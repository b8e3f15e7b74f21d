(* Tests for the static well-formedness lint (lib/analysis).

   Two directions: every rule fires on its deliberately malformed
   fixture (Fixtures.all pairs each rule id with an automaton violating
   exactly that side condition), and the real catalog gets a clean bill
   of health.  Also covers the shared-kernel refactor of
   Automaton.check_input_enabled / Composition.check_compatible: empty
   probe lists now fail loudly instead of silently passing. *)

open Afd_ioa
open Afd_analysis

let rule_ids report =
  List.map (fun f -> f.Report.rule) report.Report.findings

let fires id entry =
  let report = Engine.run_entry ~origin:"fixture" entry in
  List.mem id (rule_ids report)

let test_each_rule_fires () =
  List.iter
    (fun (id, entry) ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s fires on its fixture" id)
        true (fires id entry))
    Fixtures.all

let test_fixtures_cover_all_rules () =
  (* every shipped rule has a malformed fixture exercising it *)
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "rule %s has a fixture" id)
        true
        (Option.is_some (Fixtures.find id)))
    Rules.ids

let test_well_formed_fixture_clean () =
  let report = Engine.run_entry ~origin:"fixture" Fixtures.well_formed in
  Alcotest.(check (list string)) "no findings at all" [] (rule_ids report)

let test_malformed_fixtures_error () =
  (* error-severity fixtures must make the report (and hence the CLI)
     fail; warning-severity rules only fail under --strict *)
  List.iter
    (fun (id, entry) ->
      let report = Engine.run_entry ~origin:"fixture" entry in
      match Rule.find Rules.all id with
      | None -> Alcotest.failf "fixture %s names no rule" id
      | Some r ->
        let expect_error = r.Rule.severity = Report.Error in
        Alcotest.(check bool)
          (Printf.sprintf "fixture %s yields error findings iff rule is error" id)
          expect_error
          (Report.has_errors report))
    Fixtures.all

let test_catalog_clean () =
  let report = Engine.run (Catalog.items ()) in
  Alcotest.(check int) "zero error findings on the real catalog" 0
    (List.length (Report.errors report));
  Alcotest.(check int) "zero warning findings on the real catalog" 0
    (List.length (Report.warnings report))

let test_catalog_breadth () =
  let report = Engine.run (Catalog.items ()) in
  Alcotest.(check bool) "at least 15 registered subjects" true
    (report.Report.subjects_checked >= 15);
  Alcotest.(check bool) "at least 8 rules" true (report.Report.rules_run >= 8)

let test_rule_selection () =
  (* running only input-enabled over the task-nondeterminism fixture
     finds nothing: selection really restricts the rule set *)
  match Fixtures.find "task-determinism" with
  | None -> Alcotest.fail "missing fixture"
  | Some entry ->
    let rules =
      match Rule.find Rules.all "input-enabled" with
      | Some r -> [ r ]
      | None -> Alcotest.fail "missing rule"
    in
    let report = Engine.run_entry ~rules ~origin:"fixture" entry in
    Alcotest.(check (list string)) "selected rule finds nothing here" []
      (rule_ids report)

let test_report_shape () =
  match Fixtures.find "task-determinism" with
  | None -> Alcotest.fail "missing fixture"
  | Some entry ->
    let report = Engine.run_entry ~origin:"fixture" entry in
    let f =
      match Report.errors report with
      | f :: _ -> f
      | [] -> Alcotest.fail "expected an error finding"
    in
    Alcotest.(check string) "origin recorded" "fixture" f.Report.where.Report.origin;
    Alcotest.(check bool) "task location recorded" true
      (Option.is_some f.Report.where.Report.task);
    (* the JSON rendering embeds the rule id and is parse-shaped *)
    let json = Report.to_json report in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "json mentions the rule" true
      (contains json "\"rule\":\"task-determinism\"");
    Alcotest.(check bool) "json has a summary" true
      (contains json "\"summary\":")

(* --- the graph rules (exhaustive exploration, Rules.mc) --- *)

let mc_universe = Rules.all @ Rules.mc

let test_each_mc_rule_fires () =
  List.iter
    (fun (id, entry) ->
      let report = Engine.run_entry ~rules:mc_universe ~origin:"fixture" entry in
      Alcotest.(check bool)
        (Printf.sprintf "graph rule %s fires on its fixture" id)
        true
        (List.mem id (rule_ids report)))
    Fixtures.mc

let test_mc_fixtures_cover_all_rules () =
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "graph rule %s has a fixture" id)
        true
        (Option.is_some (Fixtures.find id)))
    Rules.mc_ids

let test_mc_fixture_severities () =
  (* reachable-input-enabled and deadlock are errors; race-pair and
     dead-transition are info-only and must not fail the report *)
  List.iter
    (fun (id, entry) ->
      let report = Engine.run_entry ~rules:mc_universe ~origin:"fixture" entry in
      match Rule.find mc_universe id with
      | None -> Alcotest.failf "fixture %s names no rule" id
      | Some r ->
        let expect_error = r.Rule.severity = Report.Error in
        Alcotest.(check bool)
          (Printf.sprintf "fixture %s yields error findings iff rule is error" id)
          expect_error
          (Report.has_errors report))
    Fixtures.mc

let test_catalog_clean_with_mc_rules () =
  (* the full rule universe (--mc mode) still gives the catalog a clean
     bill of health: no errors, no warnings; info findings are fine *)
  let report = Engine.run ~rules:mc_universe (Catalog.items ()) in
  Alcotest.(check int) "zero error findings with graph rules on" 0
    (List.length (Report.errors report));
  Alcotest.(check int) "zero warning findings with graph rules on" 0
    (List.length (Report.warnings report))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  go 0

let test_verdict_surfaces_in_messages () =
  (* satellite: rule messages must say whether the exploration was
     exhaustive or hit the state budget *)
  match Fixtures.find "dead-task" with
  | None -> Alcotest.fail "missing dead-task fixture"
  | Some entry ->
    let report = Engine.run_entry ~origin:"fixture" entry in
    let msgs =
      List.filter_map
        (fun f ->
          if String.equal f.Report.rule "dead-task" then Some f.Report.message
          else None)
        report.Report.findings
    in
    Alcotest.(check bool) "dead-task fired" true (msgs <> []);
    List.iter
      (fun m ->
        Alcotest.(check bool) "message carries the exploration verdict" true
          (contains m "exploration exhausted" || contains m "exploration truncated"))
      msgs

let test_explorations_in_report () =
  (* satellite: the JSON report carries per-subject exploration stats
     with explicit exhausted/truncated verdicts *)
  let report = Engine.run ~max_states:512 (Catalog.items ()) in
  Alcotest.(check bool) "explorations recorded" true
    (report.Report.explorations <> []);
  let json = Report.to_json report in
  Alcotest.(check bool) "json has an explorations array" true
    (contains json "\"explorations\":");
  Alcotest.(check bool) "json spells out the verdict" true
    (contains json "\"verdict\":\"exhausted\"")

(* --- the symmetry rules (equivariance analysis, Rules.symmetry) --- *)

let sym_universe = Rules.all @ Rules.mc @ Rules.symmetry

let test_each_symmetry_rule_fires () =
  List.iter
    (fun (id, entry) ->
      let report =
        Engine.run_entry ~rules:sym_universe ~symmetry:true ~origin:"fixture"
          entry
      in
      Alcotest.(check bool)
        (Printf.sprintf "symmetry rule %s fires on its fixture" id)
        true
        (List.mem id (rule_ids report)))
    Fixtures.symmetry

let test_symmetry_rules_silent_without_flag () =
  (* without ~symmetry:true the analyzer never runs, so the rules have
     nothing to report even over their own fixtures *)
  List.iter
    (fun (id, entry) ->
      let report =
        Engine.run_entry ~rules:sym_universe ~origin:"fixture" entry
      in
      Alcotest.(check bool)
        (Printf.sprintf "symmetry rule %s silent without the flag" id)
        false
        (List.mem id (rule_ids report)))
    Fixtures.symmetry

let test_symmetry_findings_are_info () =
  (* both symmetry rules are Info: a broken or missing declaration is
     advice about reduction opportunity, not a well-formedness error *)
  List.iter
    (fun (_, entry) ->
      let report =
        Engine.run_entry ~rules:sym_universe ~symmetry:true ~origin:"fixture"
          entry
      in
      Alcotest.(check bool) "no error findings" false (Report.has_errors report);
      Alcotest.(check (list string)) "no warning findings" []
        (List.map (fun f -> f.Report.rule) (Report.warnings report)))
    Fixtures.symmetry

let test_certifiable_fixture_quotients_silently () =
  let report =
    Engine.run_entry ~rules:sym_universe ~symmetry:true ~origin:"fixture"
      Fixtures.symmetry_certifiable
  in
  Alcotest.(check (list string)) "certified subject yields no findings" []
    (rule_ids report)

(* --- the exit-code contract (pinned without spawning processes) --- *)

let finding severity =
  { Report.rule = "r";
    severity;
    where = Report.subject ~origin:"fixture" "a";
    message = "m";
  }

let report ?explorations findings =
  Report.make ?explorations ~rules_run:1 ~subjects_checked:1 findings

let truncated_exploration =
  { Report.explored = "a"; exp_origin = "fixture"; states = 10; transitions = 9;
    verdict = "truncated"; exhaustive = false; por = false; slept = 0;
  }

let test_exit_code_contract () =
  let check name expect code = Alcotest.(check int) name expect code in
  check "clean report exits 0" 0 (Report.exit_code (report []));
  check "info findings exit 0" 0 (Report.exit_code (report [ finding Report.Info ]));
  check "errors exit 1" 1 (Report.exit_code (report [ finding Report.Error ]));
  check "warnings exit 0 by default" 0
    (Report.exit_code (report [ finding Report.Warning ]));
  check "warnings exit 1 under strict" 1
    (Report.exit_code ~strict:true (report [ finding Report.Warning ]));
  check "mc failure exits 1" 1 (Report.exit_code ~mc_fail:true (report []));
  let truncated = report ~explorations:[ truncated_exploration ] [] in
  check "truncation exits 0 by default" 0 (Report.exit_code truncated);
  check "truncation exits 2 under strict" 2
    (Report.exit_code ~strict:true truncated);
  check "mc truncation exits 2 under strict" 2
    (Report.exit_code ~strict:true ~mc_truncated:true (report []));
  (* 1 dominates 2: a report that is both wrong and sampled is first of
     all wrong *)
  check "errors dominate strict truncation" 1
    (Report.exit_code ~strict:true
       (report ~explorations:[ truncated_exploration ]
          [ finding Report.Error ]));
  check "mc failure dominates strict truncation" 1
    (Report.exit_code ~strict:true ~mc_fail:true ~mc_truncated:true (report []))

(* --- the refactored library-side checks (satellite: shared kernels) --- *)

let counter_probes = [ Fixtures.Tick 1; Fixtures.Tick 2; Fixtures.Reset ]

let test_check_input_enabled_empty () =
  (* the pre-refactor behavior silently returned Ok () here *)
  let c = Fixtures.counter ~name:"counter" ~limit:3 in
  (match Automaton.check_input_enabled c [ 0 ] [] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty probe list must not pass");
  (match Automaton.check_input_enabled c [] counter_probes with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty state list must not pass");
  match Automaton.check_input_enabled c [ 0; 1 ] counter_probes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed counter rejected: %s" e

let test_check_compatible_empty () =
  let c =
    Composition.make ~name:"pair"
      [ Component.C (Fixtures.counter ~name:"counter" ~limit:3);
        Component.C Fixtures.listener;
      ]
  in
  (match Composition.check_compatible c ~probes:[] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty probe list must not pass");
  match Composition.check_compatible c ~probes:counter_probes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "compatible pair rejected: %s" e

let suite =
  [ Alcotest.test_case "each rule fires on its fixture" `Quick test_each_rule_fires;
    Alcotest.test_case "every rule has a fixture" `Quick test_fixtures_cover_all_rules;
    Alcotest.test_case "well-formed fixture is clean" `Quick
      test_well_formed_fixture_clean;
    Alcotest.test_case "malformed fixtures produce errors" `Quick
      test_malformed_fixtures_error;
    Alcotest.test_case "catalog clean bill of health" `Quick test_catalog_clean;
    Alcotest.test_case "catalog breadth" `Quick test_catalog_breadth;
    Alcotest.test_case "rule selection restricts the run" `Quick test_rule_selection;
    Alcotest.test_case "report locations and json" `Quick test_report_shape;
    Alcotest.test_case "each graph rule fires on its fixture" `Quick
      test_each_mc_rule_fires;
    Alcotest.test_case "every graph rule has a fixture" `Quick
      test_mc_fixtures_cover_all_rules;
    Alcotest.test_case "graph fixtures: error severity iff rule is error" `Quick
      test_mc_fixture_severities;
    Alcotest.test_case "catalog clean under the full rule universe" `Quick
      test_catalog_clean_with_mc_rules;
    Alcotest.test_case "rule messages surface the exploration verdict" `Quick
      test_verdict_surfaces_in_messages;
    Alcotest.test_case "report carries exploration stats" `Quick
      test_explorations_in_report;
    Alcotest.test_case "each symmetry rule fires on its fixture" `Quick
      test_each_symmetry_rule_fires;
    Alcotest.test_case "symmetry rules silent without the flag" `Quick
      test_symmetry_rules_silent_without_flag;
    Alcotest.test_case "symmetry findings are info-severity" `Quick
      test_symmetry_findings_are_info;
    Alcotest.test_case "certified fixture quotients silently" `Quick
      test_certifiable_fixture_quotients_silently;
    Alcotest.test_case "exit-code contract" `Quick test_exit_code_contract;
    Alcotest.test_case "check_input_enabled rejects empty probes" `Quick
      test_check_input_enabled_empty;
    Alcotest.test_case "check_compatible rejects empty probes" `Quick
      test_check_compatible_empty;
  ]
