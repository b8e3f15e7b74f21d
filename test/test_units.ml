(* Small-module unit coverage: Verdict, Msg, Fd_event, Spec_util,
   Problem, Fairness edge cases, pretty-printers, the JSON escaper. *)

open Afd_ioa
open Afd_core
open Afd_system

(* --- Verdict --- *)

let test_verdict_algebra () =
  let open Verdict in
  Alcotest.(check bool) "sat && sat" true (is_sat (Sat &&& Sat));
  Alcotest.(check bool) "violated dominates undecided" true
    (is_violated (Undecided "u" &&& Violated "v"));
  Alcotest.(check bool) "undecided dominates sat" false (is_sat (Sat &&& Undecided "u"));
  Alcotest.(check bool) "all empty is sat" true (is_sat (all []));
  Alcotest.(check bool) "of_bool false" true (is_violated (of_bool ~error:"e" false));
  Alcotest.(check string) "pp violated" "violated (boom)" (Fmt.str "%a" pp (Violated "boom"));
  (match Violated "a" &&& Violated "b" with
  | Violated r -> Alcotest.(check string) "violated reasons accumulate" "a; b" r
  | _ -> Alcotest.fail "violated &&& violated must stay violated");
  (match all [ Undecided "u1"; Sat; Undecided "u2" ] with
  | Undecided r -> Alcotest.(check string) "undecided reasons accumulate" "u1; u2" r
  | _ -> Alcotest.fail "all over undecided must stay undecided");
  (match tag "clause" (Undecided "u") with
  | Undecided r -> Alcotest.(check string) "tag prefixes the reason" "clause: u" r
  | _ -> Alcotest.fail "tag must preserve the class")

(* --- Msg.vset --- *)

let test_vset () =
  let open Msg in
  Alcotest.(check (option bool)) "min empty" None (vset_min vset_empty);
  Alcotest.(check (option bool)) "min {1}" (Some true) (vset_min (vset_of true));
  Alcotest.(check (option bool)) "min {0,1}" (Some false)
    (vset_min (vset_union (vset_of true) (vset_of false)));
  Alcotest.(check bool) "mem" true (vset_mem true (vset_of true));
  Alcotest.(check bool) "not mem" false (vset_mem false (vset_of true));
  Alcotest.(check string) "pp" "{0,1}"
    (Fmt.str "%a" pp_vset (vset_union (vset_of false) (vset_of true)))

(* --- Fd_event --- *)

let test_fd_event () =
  let t =
    [ Fd_event.Output (0, "a"); Fd_event.Crash 1; Fd_event.Output (0, "b");
      Fd_event.Crash 2 ]
  in
  Alcotest.(check (list string)) "outputs_at" [ "a"; "b" ] (Fd_event.outputs_at 0 t);
  Alcotest.(check (option string)) "last_output_at" (Some "b") (Fd_event.last_output_at 0 t);
  Alcotest.(check (option int)) "first_crash_index" (Some 1) (Fd_event.first_crash_index 1 t);
  Alcotest.(check (option int)) "no crash" None (Fd_event.first_crash_index 0 t);
  Alcotest.(check bool) "faulty" true (Loc.Set.equal (Fd_event.faulty t) (Loc.Set.of_list [ 1; 2 ]));
  Alcotest.(check bool) "live" true
    (Loc.Set.equal (Fd_event.live ~n:4 t) (Loc.Set.of_list [ 0; 3 ]));
  let mapped = List.map (Fd_event.map String.length) t in
  Alcotest.(check (list int)) "map payloads" [ 1; 1 ]
    (Fd_event.outputs_at 0 mapped)

(* --- Spec_util --- *)

let test_spec_util () =
  let t = [ Fd_event.Output (0, 1); Fd_event.Crash 1; Fd_event.Output (0, 2) ] in
  (match Spec_util.last_outputs_of_live ~n:2 t with
  | Ok (m, live) ->
    Alcotest.(check (option int)) "last at p0" (Some 2) (Loc.Map.find_opt 0 m);
    Alcotest.(check bool) "live = {p0}" true (Loc.Set.equal live (Loc.Set.singleton 0))
  | Error _ -> Alcotest.fail "should resolve");
  (match Spec_util.last_outputs_of_live ~n:3 t with
  | Error (Verdict.Undecided _) -> () (* p2 live without outputs *)
  | _ -> Alcotest.fail "expected undecided");
  let v =
    Spec_util.for_all_outputs t (fun ~crashed _ o ->
        if o = 2 && not (Loc.Set.mem 1 crashed) then Error "2 before crash" else Ok ())
  in
  Alcotest.(check bool) "crashed-so-far tracking" true (Verdict.is_sat v)

(* --- Problem --- *)

let test_problem () =
  let p = Problem.of_afd Omega.spec ~n:2 in
  let t = [ Fd_event.Output (0, 0); Fd_event.Output (1, 0) ] in
  Alcotest.(check bool) "afd as problem accepts" true (Verdict.is_sat (p.Problem.check t));
  Alcotest.(check bool) "crash is input" true (p.Problem.is_input (Fd_event.Crash 0));
  Alcotest.(check bool) "output classified" true
    (p.Problem.is_output (Fd_event.Output (0, 0)));
  (match Problem.solves p ~traces:[ t ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* solves_using: vacuous when the hypothesis problem is violated
     (here the hypothesis trace breaks validity, so nothing is
     demanded of the conclusion) *)
  let bad_hyp = [ Fd_event.Crash 0; Fd_event.Output (0, 0); Fd_event.Output (1, 1) ] in
  match Problem.solves_using p ~using:(Problem.of_afd Omega.spec ~n:2) ~traces:[ bad_hyp ] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_problem_solves_violation () =
  let p = Problem.of_afd Omega.spec ~n:2 in
  let bad = [ Fd_event.Crash 0; Fd_event.Output (0, 1); Fd_event.Output (1, 1) ] in
  match Problem.solves p ~traces:[ bad ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "output after crash must be flagged"

(* --- Fairness edge cases --- *)

let test_fairness_quiescent () =
  (* a system that quiesces: final report must say so *)
  let one_shot =
    let kind = function `Fire -> Some Automaton.Output in
    let step s `Fire = if s then Some false else None in
    { Automaton.name = "oneshot";
      kind;
      start = true;
      step = (fun s a -> step s a);
      tasks =
        [ { Automaton.task_name = "t";
            fair = true;
            enabled = (fun s -> if s then Some `Fire else None);
          } ];
    }
  in
  let comp = Composition.make ~name:"q" [ Component.C one_shot ] in
  let outcome = Scheduler.run comp Scheduler.default_cfg in
  let report = Fairness.analyze comp (Rebuild.execution comp outcome) in
  Alcotest.(check bool) "quiescent end" true report.Fairness.quiescent_end;
  Alcotest.(check bool) "fair prefix" true report.Fairness.fair_prefix;
  Alcotest.(check (list (pair string int))) "one firing" [ ("oneshot/t", 1) ] report.Fairness.firings

(* --- Act pretty-printing (stable formats used in logs) --- *)

let test_act_pp () =
  let check s a = Alcotest.(check string) s s (Fmt.str "%a" Act.pp a) in
  check "crash_p2" (Act.Crash 2);
  check "propose(true)_p0" (Act.Propose { at = 0; v = true });
  check "decide(false)_p1" (Act.Decide { at = 1; v = false });
  check "send(ping(3),p1)_p0" (Act.Send { src = 0; dst = 1; msg = Msg.Ping 3 });
  check "FD-P({p1})_p0"
    (Act.Fd { at = 0; detector = "P"; payload = Act.Pset (Loc.Set.singleton 1) });
  check "query-participant_p1" (Act.Query { at = 1; detector = "participant" });
  check "step(advance)_p2" (Act.Step { at = 2; tag = "advance" })

let test_loc_pp () =
  Alcotest.(check string) "loc" "p7" (Loc.to_string 7);
  Alcotest.(check string) "set" "{p0,p2}"
    (Fmt.str "%a" Loc.pp_set (Loc.Set.of_list [ 2; 0 ]))

(* --- Json --- *)

let test_json_escape () =
  let check name want s = Alcotest.(check string) name want (Json.escape s) in
  check "control byte as \\u" "\\u0001" "\x01";
  check "named escapes" "\\\"\\\\\\n\\t\\r" "\"\\\n\t\r";
  check "UTF-8 bytes pass through" "\xe2\x97\x87 \xcf\x83" "\xe2\x97\x87 \xcf\x83";
  Alcotest.(check string) "quoted" "\"a\\u001fb\"" (Json.string "a\x1fb")

let suite =
  [ Alcotest.test_case "verdict algebra" `Quick test_verdict_algebra;
    Alcotest.test_case "vset" `Quick test_vset;
    Alcotest.test_case "fd_event helpers" `Quick test_fd_event;
    Alcotest.test_case "spec_util" `Quick test_spec_util;
    Alcotest.test_case "problem wrapper" `Quick test_problem;
    Alcotest.test_case "problem flags violations" `Quick test_problem_solves_violation;
    Alcotest.test_case "fairness on quiescent runs" `Quick test_fairness_quiescent;
    Alcotest.test_case "act pretty-printing" `Quick test_act_pp;
    Alcotest.test_case "loc pretty-printing" `Quick test_loc_pp;
    Alcotest.test_case "json escaper" `Quick test_json_escape;
  ]
