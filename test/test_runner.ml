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

(* --- persistent pool: crash / determinism hardening ---

   The contract Pspace leans on: a task that raises must neither
   deadlock the round barrier nor poison later rounds; the FIRST
   exception in index order is the one re-raised, independent of how
   domains interleave; shutdown is idempotent and map_pool afterwards
   is a clean Invalid_argument, not a hang. *)

let test_persistent_pool_rounds () =
  R.Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "job count recorded" 4 (R.Pool.jobs p);
      for round = 1 to 20 do
        let input = Array.init 97 (fun i -> i) in
        let out = R.Pool.map_pool p (fun i -> (i * round) + 1) input in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d results in input order" round)
          (Array.map (fun i -> (i * round) + 1) input)
          out
      done)

exception Kaboom of int

let test_persistent_pool_survives_raises () =
  R.Pool.with_pool ~jobs:4 (fun p ->
      (* alternate raising and clean rounds under contention: every
         raising round must re-raise the first failing index, every
         clean round must still produce exact results *)
      for round = 0 to 29 do
        let input = Array.init 200 (fun i -> i) in
        if round mod 2 = 0 then begin
          match
            R.Pool.map_pool p
              (fun i -> if i mod 17 = 3 then raise (Kaboom i) else i)
              input
          with
          | exception Kaboom i ->
            Alcotest.(check int)
              (Printf.sprintf "round %d: first failing index wins" round)
              3 i
          | _ -> Alcotest.fail "expected Kaboom to propagate"
        end
        else
          Alcotest.(check (array int))
            (Printf.sprintf "round %d clean after a raising round" round)
            (Array.map (fun i -> i * 2) input)
            (R.Pool.map_pool p (fun i -> i * 2) input)
      done)

let test_pool_shutdown_semantics () =
  let p = R.Pool.create ~jobs:3 in
  let out = R.Pool.map_pool p (fun i -> i + 1) (Array.init 10 (fun i -> i)) in
  Alcotest.(check (array int)) "live pool works" (Array.init 10 (fun i -> i + 1)) out;
  R.Pool.shutdown p;
  R.Pool.shutdown p;
  (* idempotent *)
  (match R.Pool.map_pool p (fun i -> i) [| 1; 2; 3 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "map_pool after shutdown must raise Invalid_argument");
  (* with_pool shuts down even when the body raises *)
  match
    R.Pool.with_pool ~jobs:2 (fun p ->
        ignore (R.Pool.map_pool p (fun i -> i) [| 1 |]);
        failwith "body")
  with
  | exception Failure m -> Alcotest.(check string) "body exception surfaces" "body" m
  | _ -> Alcotest.fail "expected the body exception to propagate"

let suite =
  [ Alcotest.test_case "jobs=1 equals jobs=4 byte-for-byte" `Quick test_jobs_equivalence;
    Alcotest.test_case "rerun with same root is identical" `Quick test_rerun_identical;
    Alcotest.test_case "changing the root reseeds cells" `Quick test_root_reseeds;
    Alcotest.test_case "fixture rows are green" `Quick test_fixture_green;
    Alcotest.test_case "pool preserves input order" `Quick test_pool_preserves_order;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_propagates_exceptions;
    Alcotest.test_case "persistent pool: 20 rounds, exact results" `Quick
      test_persistent_pool_rounds;
    Alcotest.test_case "persistent pool survives raising rounds under contention"
      `Quick test_persistent_pool_survives_raises;
    Alcotest.test_case "pool shutdown: idempotent, refuses further rounds" `Quick
      test_pool_shutdown_semantics;
  ]
