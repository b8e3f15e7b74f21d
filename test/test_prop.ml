(* The streaming temporal-property engine: verdict algebra, DSL and
   monitor units, counterexample witnesses, and the online/offline
   differential over the detector catalog.

   The load-bearing property is the last one: for every catalog
   subject, every seed and every witness-window size, the verdict of
   the incremental monitor fed event-by-event from the scheduler (no
   trace materialized) is structurally equal —
   reasons included — to the full-trace [Afd.check] replay. *)

open Afd_ioa
open Afd_core
module P = Afd_prop.Prop
module M = Afd_prop.Monitor
module Cx = Afd_prop.Counterexample
module Check = Afd_bench.Check

let verdict = Alcotest.testable Verdict.pp Check.verdict_equal

(* ------------------------------------------------------------------ *)
(* Verdict accumulation                                                *)
(* ------------------------------------------------------------------ *)

let test_verdict_accumulation () =
  let open Verdict in
  Alcotest.check verdict "violated reasons accumulate" (Violated "a; b")
    (Violated "a" &&& Violated "b");
  Alcotest.check verdict "undecided reasons accumulate" (Undecided "a; b")
    (Undecided "a" &&& Undecided "b");
  Alcotest.check verdict "sat is the unit" (Violated "x") (Sat &&& Violated "x");
  Alcotest.check verdict "violated dominates undecided" (Violated "v")
    (Undecided "u" &&& Violated "v");
  Alcotest.check verdict "all accumulates within the dominating class"
    (Violated "a; b")
    (all [ Violated "a"; Undecided "u"; Sat; Violated "b" ]);
  Alcotest.check verdict "tag prefixes the clause name" (Violated "acc: x")
    (tag "acc" (Violated "x"));
  Alcotest.check verdict "tag leaves sat alone" Sat (tag "acc" Sat)

(* ------------------------------------------------------------------ *)
(* DSL and monitor units (tiny hand-built formulas, payload = unit)    *)
(* ------------------------------------------------------------------ *)

let silent_p0 =
  P.always ~name:"silent-p0" (fun _st e ->
      match e with
      | Fd_event.Output (i, ()) when Loc.equal i 0 -> Error "p0 spoke"
      | Fd_event.Output _ | Fd_event.Crash _ -> Ok ())

let out i = Fd_event.Output (i, ())

let test_always_latches_first_violation () =
  let m = M.create ~n:2 silent_p0 in
  M.observe m (out 1);
  Alcotest.check verdict "clean so far" Verdict.Sat (M.verdict m);
  M.observe m (out 0);
  M.observe m (out 0);
  Alcotest.check verdict "latched, tagged with the clause name"
    (Verdict.Violated "silent-p0: p0 spoke") (M.verdict m);
  match M.counterexample m with
  | None -> Alcotest.fail "violated monitor must produce a counterexample"
  | Some cx ->
    Alcotest.(check int) "minimal violating prefix index" 1 cx.Cx.index;
    Alcotest.(check string) "clause" "silent-p0" cx.Cx.clause;
    (match cx.Cx.event with
    | Some (Fd_event.Output (i, ())) ->
      Alcotest.(check int) "offending event location" 0 i
    | _ -> Alcotest.fail "offending event must be the latched output")

let test_until_releases () =
  (* p0 must stay silent until p1 has crashed. *)
  let prop =
    P.until ~name:"quiet-until-crash"
      ~release:(fun st -> Loc.Set.mem 1 st.P.crashed)
      (fun _st e ->
        match e with
        | Fd_event.Output (i, ()) when Loc.equal i 0 -> Error "p0 spoke too early"
        | Fd_event.Output _ | Fd_event.Crash _ -> Ok ())
  in
  let m = M.create ~n:2 prop in
  M.observe m (out 1);
  M.observe m (Fd_event.Crash 1);
  M.observe m (out 0);
  Alcotest.check verdict "released before the output" Verdict.Sat (M.verdict m);
  let m' = M.create ~n:2 prop in
  M.observe m' (out 0);
  Alcotest.check verdict "violates while unreleased"
    (Verdict.Violated "quiet-until-crash: p0 spoke too early") (M.verdict m')

(* At n = 1 with only p0 outputs, the trace length is p0's output
   count. *)
let test_stable_is_rejudged () =
  let prop =
    P.eventually_stable ~name:"chatty-p0" (fun st ->
        P.j_of_bool ~undecided:"p0 has spoken < 2 times" (st.P.len >= 2))
  in
  let m = M.create ~n:1 prop in
  M.observe m (out 0);
  Alcotest.check verdict "undecided on a short prefix"
    (Verdict.Undecided "chatty-p0: p0 has spoken < 2 times") (M.verdict m);
  M.observe m (out 0);
  Alcotest.check verdict "flips to sat as the prefix grows" Verdict.Sat
    (M.verdict m)

let test_clause_verdicts_and_names () =
  let prop = P.conj [ P.validity (); silent_p0 ] in
  Alcotest.(check (list string))
    "clause names in formula order"
    [ "validity.safety"; "validity.liveness"; "silent-p0" ]
    (List.map fst (P.clauses prop));
  let m = M.create ~n:2 prop in
  M.observe m (out 1);
  M.observe m (out 0);
  Alcotest.(check (list (pair string verdict)))
    "per-clause verdicts, reasons untagged"
    [ ("validity.safety", Verdict.Sat);
      ("validity.liveness", Verdict.Sat);
      ("silent-p0", Verdict.Violated "p0 spoke");
    ]
    (M.clause_verdicts m)

let test_counterexample_window_and_json () =
  let m = M.create ~window:2 ~n:3 silent_p0 in
  M.observe m (out 2);
  M.observe m (out 1);
  M.observe m (out 0);
  match M.counterexample m with
  | None -> Alcotest.fail "expected a counterexample"
  | Some cx ->
    Alcotest.(check int) "index" 2 cx.Cx.index;
    Alcotest.(check int) "window start" 1 cx.Cx.window_start;
    Alcotest.(check (list int))
      "window holds the last w events up to the violation" [ 1; 0 ]
      (List.filter_map
         (function Fd_event.Output (i, ()) -> Some i | Fd_event.Crash _ -> None)
         cx.Cx.window);
    let json = Cx.to_json ~pp_out:(Fmt.any "()") cx in
    List.iter
      (fun needle ->
        if not (Scheduler.contains ~needle json) then
          Alcotest.failf "JSON witness %s lacks %s" json needle)
      [ "\"index\":2"; "\"clause\":\"silent-p0\""; "\"window_start\":1" ]

(* Known answers for P's offline check at n = 2: a trace whose output
   suspects a location before it crashes violates strong accuracy, and
   only that clause; a trace that suspects it only after the crash, with
   every live location outputting, satisfies every clause. *)
let test_offline_check_known_answers () =
  let violating =
    [ Fd_event.Output (0, Loc.Set.singleton 1);
      Fd_event.Output (1, Loc.Set.empty);
      Fd_event.Crash 1;
      Fd_event.Output (0, Loc.Set.singleton 1);
    ]
  in
  Alcotest.check verdict "early suspicion violates accuracy"
    (Verdict.Violated
       "accuracy: output {p1} at p0 suspects not-yet-crashed location(s) {p1}")
    (Afd.check Perfect.spec ~n:2 violating);
  let satisfying =
    [ Fd_event.Output (0, Loc.Set.empty);
      Fd_event.Output (1, Loc.Set.empty);
      Fd_event.Crash 1;
      Fd_event.Output (0, Loc.Set.singleton 1);
    ]
  in
  Alcotest.check verdict "suspicion after the crash satisfies P" Verdict.Sat
    (Afd.check Perfect.spec ~n:2 satisfying)

(* ------------------------------------------------------------------ *)
(* Online == offline over the catalog                                  *)
(* ------------------------------------------------------------------ *)

let check_subject ~window ~seed subj =
  let r = Check.run_subject ~window ~seed subj in
  if not (Check.verdict_equal r.Check.online r.Check.offline) then
    Alcotest.failf "%s seed %d window %d: online %a <> offline %a"
      (Check.id subj) seed window Verdict.pp r.Check.online Verdict.pp
      r.Check.offline;
  if Check.expect_violated subj then begin
    if not (Verdict.is_violated r.Check.online) then
      Alcotest.failf "%s seed %d: expected violated, got %a" (Check.id subj) seed
        Verdict.pp r.Check.online;
    match r.Check.counterexample with
    | Some i when i >= 0 && i < r.Check.events -> ()
    | Some i -> Alcotest.failf "%s: counterexample index %d out of range" (Check.id subj) i
    | None -> Alcotest.failf "%s: violated without a counterexample index" (Check.id subj)
  end
  else if not (Verdict.is_sat r.Check.online) then
    Alcotest.failf "%s seed %d: expected sat, got %a" (Check.id subj) seed
      Verdict.pp r.Check.online

let prop_online_equals_offline =
  QCheck2.Test.make ~name:"online monitor == offline check (catalog, all subjects)"
    ~count:20
    QCheck2.Gen.(pair (int_bound 10_000) (oneofl [ 1; 8; 64 ]))
    (fun (seed, window) ->
      List.iter (fun subj -> check_subject ~window ~seed subj) Check.subjects;
      true)

(* ------------------------------------------------------------------ *)
(* The fold accumulator order's contract                               *)
(* ------------------------------------------------------------------ *)

(* [fcmp a b = 0] exactly when [a] and [b] are structurally equal: the
   model checker compares and hashes accumulators structurally and
   takes orbit minima under [fcmp], so the two must agree.  Checked on
   the folds of Sigma, Marabout and Strong, for accumulators reached by
   two random event sequences and for a transported accumulator against
   the one stepped along the permuted sequence. *)

(* The accumulator after [events], or after the prefix before the first
   latched error. *)
let fold_acc ~n (f : (_, _) P.fold) events =
  let rec go st acc = function
    | [] -> acc
    | e :: rest -> (
      match f.P.fstep st acc e with
      | Ok acc' -> go (P.update st e) acc' rest
      | Error _ -> acc)
  in
  go (P.init ~n) f.P.finit events

let fcmp_contract_holds ~n ~pi (spec : Loc.Set.t Afd.spec) xs ys =
  let perm_event = function
    | Fd_event.Crash i -> Fd_event.Crash (pi i)
    | Fd_event.Output (i, s) -> Fd_event.Output (pi i, Loc.Set.map pi s)
  in
  let folds =
    List.filter_map
      (fun (nm, c) ->
        match c with
        | P.Fold f -> (
          match (f.P.fcmp, f.P.fperm) with
          | Some cmp, Some perm ->
            let a = fold_acc ~n f xs and b = fold_acc ~n f ys in
            let agree x y = (cmp x y = 0) = (Stdlib.compare x y = 0) in
            Some
              (agree a b && agree b a && cmp a a = 0
              && agree (perm pi a) (fold_acc ~n f (List.map perm_event xs)))
          | _ -> QCheck2.Test.fail_reportf "%s: fold %s lacks fcmp or fperm" spec.Afd.name nm)
        | P.Always _ | P.Until _ | P.Stable _ -> None)
      (P.clauses (spec.Afd.prop ~n))
  in
  folds <> [] && List.for_all Fun.id folds

let prop_fcmp_structural =
  let gen =
    QCheck2.Gen.(
      int_range 1 4 >>= fun n ->
      let event =
        oneof
          [ map (fun i -> Fd_event.Crash i) (int_bound (n - 1));
            map2
              (fun i bits ->
                Fd_event.Output
                  (i, Loc.Set.of_list (List.filter (fun l -> bits land (1 lsl l) <> 0)
                                         (List.init n Fun.id))))
              (int_bound (n - 1))
              (int_bound ((1 lsl n) - 1));
          ]
      in
      let events = list_size (int_bound 6) event in
      map3 (fun pi xs ys -> (n, Array.of_list pi, xs, ys))
        (shuffle_l (List.init n Fun.id)) events events)
  in
  QCheck2.Test.make ~name:"fcmp is 0 exactly on structurally equal accumulators"
    ~count:500 gen
    (fun (n, pi, xs, ys) ->
      List.for_all
        (fun spec -> fcmp_contract_holds ~n ~pi:(Array.get pi) spec xs ys)
        [ Sigma.spec; Marabout.spec; Strong.spec ])

(* ------------------------------------------------------------------ *)
(* The validity liveness judge against a list scan                     *)
(* ------------------------------------------------------------------ *)

(* [validity.liveness] reads only whether each live location has a last
   output.  The reference scans the trace: a location is live when no
   crash names it, silent when no output does. *)
let liveness_reference ~n t =
  let silent =
    List.filter
      (fun i ->
        (not (List.mem (Fd_event.Crash i) t))
        && not (List.exists (fun e -> e = Fd_event.Output (i, ())) t))
      (Loc.universe ~n)
  in
  if silent = [] then Verdict.Sat
  else
    Verdict.Undecided
      ("validity.liveness: "
      ^ String.concat "; "
          (List.map (Printf.sprintf "live location p%d has 0 < 1 outputs") silent))

let prop_liveness_matches_scan =
  let gen =
    QCheck2.Gen.(
      int_range 1 4 >>= fun n ->
      let event =
        map2
          (fun crash i -> if crash then Fd_event.Crash i else Fd_event.Output (i, ()))
          bool (int_bound (n - 1))
      in
      map (fun t -> (n, t)) (list_size (int_bound 10) event))
  in
  let print (n, t) = Fmt.str "n=%d %a" n (Fd_event.pp_trace (Fmt.any "()")) t in
  let liveness =
    List.filter_map
      (fun (nm, c) -> if nm = "validity.liveness" then Some (P.Clause (nm, c)) else None)
      (P.clauses (P.validity ()))
    |> P.conj
  in
  QCheck2.Test.make ~name:"validity.liveness agrees with a list scan (n <= 4)"
    ~count:500 ~print gen (fun (n, t) ->
      Check.verdict_equal (M.replay ~n liveness t) (liveness_reference ~n t))

let test_matrix_smoke () =
  let entries = Check.matrix ~seeds:2 () in
  let r =
    Afd_runner.Engine.run
      { Afd_runner.Engine.jobs = 2; root_seed = 1; seeds_override = None }
      entries
  in
  List.iter
    (fun e ->
      let c = Afd_runner.Metrics.exp_counts e in
      if c.Afd_runner.Metrics.violated > 0 || c.Afd_runner.Metrics.undecided > 0
      then
        Alcotest.failf "matrix row %s is not clean: %s" e.Afd_runner.Metrics.id
          e.Afd_runner.Metrics.rendered)
    r.Afd_runner.Engine.exps

let suite =
  [ Alcotest.test_case "verdict reasons accumulate across &&&/all" `Quick
      test_verdict_accumulation;
    Alcotest.test_case "always latches the first violation" `Quick
      test_always_latches_first_violation;
    Alcotest.test_case "until stops checking once released" `Quick
      test_until_releases;
    Alcotest.test_case "stable clauses are re-judged, never latched" `Quick
      test_stable_is_rejudged;
    Alcotest.test_case "clause verdicts carry formula-order names" `Quick
      test_clause_verdicts_and_names;
    Alcotest.test_case "counterexample window and JSON witness" `Quick
      test_counterexample_window_and_json;
    Alcotest.test_case "offline check: known answers for P" `Quick
      test_offline_check_known_answers;
    QCheck_alcotest.to_alcotest prop_online_equals_offline;
    QCheck_alcotest.to_alcotest prop_fcmp_structural;
    Alcotest.test_case "check matrix smoke: every meta-verdict is sat" `Quick
      test_matrix_smoke;
    QCheck_alcotest.to_alcotest prop_liveness_matches_scan;
  ]
