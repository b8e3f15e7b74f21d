(* Differential tests for the compiled composition explorer
   (lib/analysis/cspace).

   Same claim as test_pspace, one explorer over: Cspace (packed states,
   defunctionalized step tables) is STRUCTURALLY identical to
   Space.explore — same state array in the same discovery order, same
   edge array (order included), same parent tree, depths, verdict, and
   stats — at any jobs, with POR on or off, under any max_states
   budget.  End to end, the lint report is byte-identical with and
   without [compiled]. *)

open Afd_ioa
open Afd_core
open Afd_analysis
module BC = Afd_bench.Check

let chk_subjects = BC.subjects @ BC.liveness_subjects

(* Close one CHK subject like Mc.check_spec does and compare the boxed
   sequential exploration against the compiled one.  The GADT match and
   everything typed by its existentials stay inside this one
   function. *)
let subject_agrees ~por ~jobs ~max_states (BC.S { n; detector; _ }) =
  let crashable = Loc.set_of_universe ~n in
  let comp =
    Composition.make ~name:"chk-closed"
      [ Component.C (detector n);
        Component.C (Afd_automata.crash_automaton ~n ~crashable);
      ]
  in
  let aut = Composition.as_automaton comp in
  let probe =
    Probe.make ~equal_state:Composition.equal_state
      ~hash_state:Composition.hash_state ~max_states []
  in
  let seq = Space.explore ~por aut probe in
  let com = Cspace.explore_composition ~por ~jobs comp probe in
  Space.agree ~equal_state:Composition.equal_state ~equal_action:( = ) seq com

(* --- qcheck: compiled == boxed across the catalog ---

   Random subject x POR x budget x jobs.  Small random
   budgets exercise the truncation path (cut counting during merge) and
   budgets below the seed count exercise the seed-cut path. *)
let differential_prop =
  let gen =
    QCheck2.Gen.(
      let* subj_ix = int_bound (List.length chk_subjects - 1) in
      let* por = bool in
      let* jobs = oneofl [ 1; 2; 4 ] in
      let* cap = oneofl [ 1; 7; 60; 400; 2000 ] in
      return (subj_ix, por, jobs, cap))
  in
  QCheck2.Test.make
    ~name:
      "Cspace == Space (structural) on CHK subjects x por x budget x jobs"
    ~count:40
    ~print:(fun (i, por, jobs, cap) ->
      Printf.sprintf "subject=%s por=%b jobs=%d max_states=%d"
        (BC.id (List.nth chk_subjects i))
        por jobs cap)
    gen
    (fun (subj_ix, por, jobs, cap) ->
      subject_agrees ~por ~jobs ~max_states:cap (List.nth chk_subjects subj_ix))

(* --- full-catalog sweep at a fixed budget, both POR settings --- *)

let test_catalog_structural_equality () =
  List.iter
    (fun subj ->
      List.iter
        (fun por ->
          List.iter
            (fun jobs ->
              Alcotest.(check bool)
                (Printf.sprintf "%s por=%b jobs=%d structurally equal"
                   (BC.id subj) por jobs)
                true
                (subject_agrees ~por ~jobs ~max_states:6_000 subj))
            [ 1; 2; 4 ])
        [ false; true ])
    chk_subjects

(* --- profiled runs stay structurally identical --- *)

let test_profile_does_not_perturb () =
  let (BC.S { n; detector; _ }) = List.hd chk_subjects in
  let crashable = Loc.set_of_universe ~n in
  let comp =
    Composition.make ~name:"chk-closed"
      [ Component.C (detector n);
        Component.C (Afd_automata.crash_automaton ~n ~crashable);
      ]
  in
  let probe =
    Probe.make ~equal_state:Composition.equal_state
      ~hash_state:Composition.hash_state ~max_states:3_000 []
  in
  let phases = ref [] in
  let plain = Cspace.explore_composition ~por:true comp probe in
  let profiled =
    Cspace.explore_composition ~por:true
      ~profile:(fun k dt -> phases := (k, dt) :: !phases)
      comp probe
  in
  Alcotest.(check bool) "profiled == unprofiled" true
    (Space.agree ~equal_state:Composition.equal_state ~equal_action:( = )
       plain profiled);
  List.iter
    (fun k ->
      Alcotest.(check bool) ("phase " ^ k ^ " reported") true
        (List.mem_assoc k !phases))
    [ "workers"; "merge"; "decode" ]

(* --- the lint engine through Subject: compiled == boxed, end to end --- *)

let test_lint_report_compiled_invariant () =
  let report compiled =
    Report.to_json
      (Engine.run ~rules:(Rules.all @ Rules.mc) ~max_states:2_000 ?compiled
         (Catalog.items ()))
  in
  Alcotest.(check string) "lint JSON identical with and without compiled"
    (report None) (report (Some true))

(* --- crash safety: a raising step propagates, sequential or not --- *)

exception Boom

(* counter automaton whose step blows up past 5 *)
let bomb =
  { Automaton.name = "bomb";
    kind = (fun _ -> Some Automaton.Internal);
    start = 0;
    step = (fun s () -> if s >= 5 then raise Boom else Some (s + 1));
    tasks =
      [ { Automaton.task_name = "inc";
          fair = true;
          enabled = (fun _ -> Some ());
        }
      ];
  }

let test_raise_propagates () =
  let comp = Composition.make ~name:"bomb" [ Component.C bomb ] in
  let probe =
    Probe.make ~equal_state:Composition.equal_state
      ~hash_state:Composition.hash_state ~max_states:1_000 []
  in
  List.iter
    (fun jobs ->
      match Cspace.explore_composition ~jobs comp probe with
      | exception Boom -> ()
      | _ ->
        Alcotest.failf "jobs=%d: expected the step exception to propagate" jobs)
    [ 1; 2 ]

let suite =
  [ QCheck_alcotest.to_alcotest differential_prop;
    Alcotest.test_case "catalog x por x jobs: structural equality" `Quick
      test_catalog_structural_equality;
    Alcotest.test_case "profile callback does not perturb the result" `Quick
      test_profile_does_not_perturb;
    Alcotest.test_case "lint report JSON identical with compiled" `Quick
      test_lint_report_compiled_invariant;
    Alcotest.test_case "raising step propagates" `Quick test_raise_propagates;
  ]
