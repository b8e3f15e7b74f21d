(* Unit and property tests for Section 3.2's trace operations:
   validity, sampling, constrained reordering. *)

open Afd_ioa
open Afd_core

let ev_out i s = Fd_event.Output (i, Loc.Set.of_list s)
let crash i = Fd_event.Crash i

(* --- hand-written cases --- *)

let test_validity_ok () =
  let t = [ ev_out 0 []; ev_out 1 []; crash 1; ev_out 0 [ 1 ] ] in
  Alcotest.(check bool) "valid" true (Verdict.is_sat (Trace_ops.validity ~n:2 t))

let test_validity_output_after_crash () =
  let t = [ crash 1; ev_out 1 [] ] in
  Alcotest.(check bool) "violated" true
    (Verdict.is_violated (Trace_ops.validity ~n:2 t))

let test_validity_liveness_undecided () =
  let t = [ ev_out 0 [] ] in
  match Trace_ops.validity ~n:2 t with
  | Verdict.Undecided _ -> ()
  | v -> Alcotest.failf "expected undecided, got %a" Verdict.pp v

let test_sampling_checker () =
  let t = [ ev_out 0 []; crash 1; crash 1; ev_out 0 [ 1 ]; ev_out 0 [ 1 ] ] in
  (* dropping the duplicate crash is a sampling *)
  let t1 = [ ev_out 0 []; crash 1; ev_out 0 [ 1 ]; ev_out 0 [ 1 ] ] in
  Alcotest.(check bool) "drop dup crash" true (Trace_ops.is_sampling ~of_:t t1);
  (* dropping a live location's output is NOT a sampling *)
  let t2 = [ crash 1; crash 1; ev_out 0 [ 1 ]; ev_out 0 [ 1 ] ] in
  Alcotest.(check bool) "dropping live output rejected" false
    (Trace_ops.is_sampling ~of_:t t2);
  (* dropping the only crash is NOT a sampling *)
  let t3 = [ ev_out 0 []; ev_out 0 [ 1 ]; ev_out 0 [ 1 ] ] in
  Alcotest.(check bool) "dropping first crash rejected" false
    (Trace_ops.is_sampling ~of_:t t3)

let test_sampling_faulty_prefix () =
  let t = [ ev_out 1 []; ev_out 1 [ 0 ]; crash 1 ] in
  (* keep a prefix of the faulty location's outputs: ok *)
  let t1 = [ ev_out 1 []; crash 1 ] in
  Alcotest.(check bool) "prefix of faulty outputs" true
    (Trace_ops.is_sampling ~of_:t t1);
  (* keep a non-prefix subsequence: rejected *)
  let t2 = [ ev_out 1 [ 0 ]; crash 1 ] in
  Alcotest.(check bool) "non-prefix rejected" false
    (Trace_ops.is_sampling ~of_:t t2)

let test_reordering_checker () =
  let t = [ ev_out 0 []; ev_out 1 []; crash 1; ev_out 0 [ 1 ] ] in
  (* swapping the two leading outputs at different locations is fine *)
  let t1 = [ ev_out 1 []; ev_out 0 []; crash 1; ev_out 0 [ 1 ] ] in
  Alcotest.(check bool) "swap across locations ok" true
    (Trace_ops.is_constrained_reordering ~of_:t t1);
  (* moving an event before a crash that preceded it is forbidden *)
  let t2 = [ ev_out 0 []; ev_out 1 []; ev_out 0 [ 1 ]; crash 1 ] in
  Alcotest.(check bool) "event escaping its crash rejected" false
    (Trace_ops.is_constrained_reordering ~of_:t t2);
  (* permuting same-location events is forbidden *)
  let t3 = [ ev_out 0 [ 1 ]; ev_out 1 []; crash 1; ev_out 0 [] ] in
  Alcotest.(check bool) "same-location swap rejected" false
    (Trace_ops.is_constrained_reordering ~of_:t t3)

let test_count_reorderings () =
  (* two events at different locations, no crash: 2 linear extensions *)
  let t = [ ev_out 0 []; ev_out 1 [] ] in
  Alcotest.(check int) "two reorderings" 2 (Trace_ops.count_reorderings_upto ~limit:100 t);
  (* crash first pins everything after it *)
  let t = [ crash 0; ev_out 1 []; ev_out 2 [] ] in
  Alcotest.(check int) "crash pins suffix order partially" 2
    (Trace_ops.count_reorderings_upto ~limit:100 t);
  let t = [ ev_out 0 []; ev_out 1 []; ev_out 2 [] ] in
  Alcotest.(check int) "3 distinct locations: 6" 6
    (Trace_ops.count_reorderings_upto ~limit:100 t)

(* --- property tests --- *)

(* Generator of random FD traces over n locations with set payloads. *)
let trace_gen n =
  QCheck2.Gen.(
    let event =
      frequency
        [ (1, map (fun i -> Fd_event.Crash (i mod n)) (int_bound (n - 1)));
          ( 6,
            map2
              (fun i s -> Fd_event.Output (i mod n, Loc.Set.of_list s))
              (int_bound (n - 1))
              (list_size (int_bound n) (int_bound (n - 1))) );
        ]
    in
    list_size (int_range 0 20) event)

let prop_sampling_is_sampling =
  QCheck2.Test.make ~name:"gen_sampling produces samplings" ~count:300 (trace_gen 3)
    (fun t ->
      let rng = Random.State.make [| 11 |] in
      let t' = Trace_ops.gen_sampling rng t in
      Trace_ops.is_sampling ~of_:t t')

let prop_reordering_is_reordering =
  QCheck2.Test.make ~name:"gen_reordering produces constrained reorderings" ~count:300
    (trace_gen 3) (fun t ->
      let rng = Random.State.make [| 13 |] in
      let t' = Trace_ops.gen_reordering rng t in
      Trace_ops.is_constrained_reordering ~of_:t t')

let prop_reordering_preserves_validity =
  QCheck2.Test.make ~name:"constrained reordering preserves validity verdicts" ~count:300
    (trace_gen 3) (fun t ->
      let rng = Random.State.make [| 17 |] in
      let t' = Trace_ops.gen_reordering rng t in
      (* safety violation status is invariant under constrained reordering *)
      Bool.equal
        (Verdict.is_violated (Trace_ops.validity ~n:3 t))
        (Verdict.is_violated (Trace_ops.validity ~n:3 t')))

let prop_sampling_preserves_validity_sat =
  QCheck2.Test.make ~name:"sampling of a valid trace stays valid (safety)" ~count:300
    (trace_gen 3) (fun t ->
      let rng = Random.State.make [| 19 |] in
      if Verdict.is_violated (Trace_ops.validity ~n:3 t) then true
      else
        let t' = Trace_ops.gen_sampling rng t in
        not (Verdict.is_violated (Trace_ops.validity ~n:3 t')))

let prop_sampling_idempotent_on_live =
  QCheck2.Test.make ~name:"sampling keeps live locations' outputs" ~count:300
    (trace_gen 3) (fun t ->
      let rng = Random.State.make [| 23 |] in
      let t' = Trace_ops.gen_sampling rng t in
      let live = Fd_event.live ~n:3 t in
      Loc.Set.for_all
        (fun i ->
          List.length (Fd_event.outputs_at i t) = List.length (Fd_event.outputs_at i t'))
        live)

let prop_sampling_composes =
  QCheck2.Test.make ~name:"a sampling of a sampling is a sampling" ~count:300
    (trace_gen 3) (fun t ->
      let rng = Random.State.make [| 31 |] in
      let t1 = Trace_ops.gen_sampling rng t in
      let t2 = Trace_ops.gen_sampling rng t1 in
      Trace_ops.is_sampling ~of_:t t2)

let prop_reordering_composes =
  QCheck2.Test.make ~name:"reorderings compose" ~count:300 (trace_gen 3) (fun t ->
      let rng = Random.State.make [| 37 |] in
      let t1 = Trace_ops.gen_reordering rng t in
      let t2 = Trace_ops.gen_reordering rng t1 in
      Trace_ops.is_constrained_reordering ~of_:t t2)

let prop_identity_is_both =
  QCheck2.Test.make ~name:"identity is a sampling and a reordering" ~count:200
    (trace_gen 3) (fun t ->
      Trace_ops.is_sampling ~of_:t t
      && Trace_ops.is_constrained_reordering ~of_:t t)

let prop_reordering_is_permutation =
  QCheck2.Test.make ~name:"reordering is a permutation" ~count:300 (trace_gen 3)
    (fun t ->
      let rng = Random.State.make [| 29 |] in
      let t' = Trace_ops.gen_reordering rng t in
      Afd_ioa.Trace.is_permutation ~equal:(Fd_event.equal Loc.Set.equal) t t')

let suite =
  [ Alcotest.test_case "validity ok" `Quick test_validity_ok;
    Alcotest.test_case "validity: output after crash" `Quick test_validity_output_after_crash;
    Alcotest.test_case "validity: liveness undecided" `Quick test_validity_liveness_undecided;
    Alcotest.test_case "sampling checker" `Quick test_sampling_checker;
    Alcotest.test_case "sampling: faulty prefix rule" `Quick test_sampling_faulty_prefix;
    Alcotest.test_case "reordering checker" `Quick test_reordering_checker;
    Alcotest.test_case "reordering count" `Quick test_count_reorderings;
    QCheck_alcotest.to_alcotest prop_sampling_is_sampling;
    QCheck_alcotest.to_alcotest prop_reordering_is_reordering;
    QCheck_alcotest.to_alcotest prop_reordering_preserves_validity;
    QCheck_alcotest.to_alcotest prop_sampling_preserves_validity_sat;
    QCheck_alcotest.to_alcotest prop_sampling_idempotent_on_live;
    QCheck_alcotest.to_alcotest prop_reordering_is_permutation;
    QCheck_alcotest.to_alcotest prop_sampling_composes;
    QCheck_alcotest.to_alcotest prop_reordering_composes;
    QCheck_alcotest.to_alcotest prop_identity_is_both;
  ]
