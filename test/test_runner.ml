(* Parallel-vs-sequential equivalence for the experiment runner: for a
   fixed root seed the verdict table and the BENCH.json report must be
   byte-identical whatever the domain count — run order must not leak
   into results — and reruns with the same root seed must reproduce
   the same rows. *)

open Afd_core
module R = Afd_runner

let small_matrix () =
  let fd ~id ~label ~detector ~spec ~n ~faults ~steps =
    R.Matrix.entry ~id ~section:"runner-fixture" ~label ~seeds:3 ~faults:[ faults ]
      (fun ~seed ~faults ->
        let t =
          Afd_automata.generate_trace ~detector:(detector ()) ~n ~seed
            ~crash_at:faults ~steps
        in
        R.Metrics.outcome ~steps:(List.length t) (Afd.check spec ~n t))
  in
  [ fd ~id:"t.omega" ~label:"omega" ~n:3
      ~detector:(fun () -> Afd_automata.fd_omega ~n:3)
      ~spec:Omega.spec ~faults:[ (8, 1) ] ~steps:60;
    fd ~id:"t.p" ~label:"p" ~n:3
      ~detector:(fun () -> Afd_automata.fd_perfect ~n:3)
      ~spec:Perfect.spec ~faults:[ (6, 0) ] ~steps:60;
  ]

let run ~jobs ~root =
  R.Engine.run
    { R.Engine.jobs; root_seed = root; seeds_override = None }
    (small_matrix ())

let test_jobs_equivalence () =
  let r1 = run ~jobs:1 ~root:7 and r4 = run ~jobs:4 ~root:7 in
  Alcotest.(check string) "verdict table jobs=1 vs jobs=4"
    (R.Engine.verdict_table r1) (R.Engine.verdict_table r4);
  Alcotest.(check string) "BENCH.json rows jobs=1 vs jobs=4"
    (R.Report.to_json r1) (R.Report.to_json r4)

let test_rerun_identical () =
  let a = run ~jobs:2 ~root:11 and b = run ~jobs:2 ~root:11 in
  Alcotest.(check string) "same root seed, same rows"
    (R.Report.to_json a) (R.Report.to_json b)

let scheduler_seeds r =
  List.concat_map
    (fun e -> List.map (fun c -> c.R.Metrics.scheduler_seed) e.R.Metrics.cells)
    r.R.Engine.exps

let test_root_reseeds () =
  let a = run ~jobs:1 ~root:7 and b = run ~jobs:1 ~root:8 in
  Alcotest.(check bool) "different roots derive different scheduler seeds" false
    (scheduler_seeds a = scheduler_seeds b)

let test_fixture_green () =
  let r = run ~jobs:2 ~root:7 in
  List.iter
    (fun e ->
      let c = R.Metrics.exp_counts e in
      Alcotest.(check int)
        (Printf.sprintf "%s: no violations" e.R.Metrics.id)
        0 c.R.Metrics.violated)
    r.R.Engine.exps

let test_pool_preserves_order () =
  let input = Array.init 100 (fun i -> i) in
  let seq = Array.map (fun i -> i * i) input in
  let par = R.Pool.map ~jobs:4 (fun i -> i * i) input in
  Alcotest.(check (array int)) "parallel map = sequential map" seq par

let test_pool_propagates_exceptions () =
  let input = Array.init 20 (fun i -> i) in
  match R.Pool.map ~jobs:3 (fun i -> if i = 13 then failwith "boom" else i) input with
  | exception Failure m -> Alcotest.(check string) "first failure re-raised" "boom" m
  | _ -> Alcotest.fail "expected the worker exception to propagate"

let suite =
  [ Alcotest.test_case "jobs=1 equals jobs=4 byte-for-byte" `Quick test_jobs_equivalence;
    Alcotest.test_case "rerun with same root is identical" `Quick test_rerun_identical;
    Alcotest.test_case "changing the root reseeds cells" `Quick test_root_reseeds;
    Alcotest.test_case "fixture rows are green" `Quick test_fixture_green;
    Alcotest.test_case "pool preserves input order" `Quick test_pool_preserves_order;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_propagates_exceptions;
  ]
