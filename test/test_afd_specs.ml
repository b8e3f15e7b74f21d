(* The AFD catalog: acceptance/rejection on hand-built traces, plus
   closure-under-sampling and closure-under-constrained-reordering
   property tests on automaton-generated valid traces (E3). *)

open Afd_ioa
open Afd_core

let set = Loc.Set.of_list
let out i s = Fd_event.Output (i, set s)
let lead i l = Fd_event.Output (i, l)
let crash i = Fd_event.Crash i

let check_is spec ~n expected t =
  let v = Afd.check spec ~n t in
  let got =
    match v with Verdict.Sat -> "sat" | Verdict.Violated _ -> "violated" | Verdict.Undecided _ -> "undecided"
  in
  Alcotest.(check string) (Fmt.str "%s on trace" spec.Afd.name) expected got

(* --- Omega --- *)

let test_omega_accepts () =
  check_is Omega.spec ~n:2 "sat" [ lead 0 1; lead 1 1; lead 0 1; lead 1 1 ];
  (* stabilizing after noise *)
  check_is Omega.spec ~n:2 "sat" [ lead 0 0; lead 1 1; lead 0 1; lead 1 1 ];
  (* crash of the non-leader *)
  check_is Omega.spec ~n:2 "sat" [ lead 0 0; lead 1 0; crash 1; lead 0 0 ]

let test_omega_rejects () =
  (* live locations stuck on different leaders: undecided (not yet T_Omega) *)
  check_is Omega.spec ~n:2 "undecided" [ lead 0 0; lead 1 1 ];
  (* stable leader is faulty *)
  check_is Omega.spec ~n:3 "undecided" [ crash 2; lead 0 2; lead 1 2 ];
  (* validity broken: output after own crash *)
  check_is Omega.spec ~n:2 "violated" [ lead 0 0; crash 1; lead 1 0; lead 1 0 ]

(* --- P --- *)

let test_p_accepts () =
  check_is Perfect.spec ~n:2 "sat" [ out 0 []; out 1 []; crash 1; out 0 [ 1 ] ];
  check_is Perfect.spec ~n:2 "sat" [ out 0 []; out 1 [] ];
  (* suspecting an already-crashed location is fine even at a faulty site *)
  check_is Perfect.spec ~n:3 "sat" [ crash 2; out 0 [ 2 ]; out 1 [ 2 ] ]

let test_p_rejects () =
  (* false suspicion: accuracy is a safety property -> violated *)
  check_is Perfect.spec ~n:2 "violated" [ out 0 [ 1 ]; out 1 []; out 0 []; out 1 [] ];
  (* missing completeness: undecided *)
  check_is Perfect.spec ~n:2 "undecided" [ out 0 []; crash 1; out 0 [] ]

(* --- EvP --- *)

let test_evp_accepts () =
  (* false suspicion then recovery: allowed *)
  check_is Ev_perfect.spec ~n:2 "sat" [ out 0 [ 1 ]; out 1 []; out 0 []; out 1 [] ];
  check_is Ev_perfect.spec ~n:2 "sat" [ out 0 []; out 1 []; crash 1; out 0 [ 1 ] ]

let test_evp_rejects () =
  (* still suspecting a live location at the end *)
  check_is Ev_perfect.spec ~n:2 "undecided" [ out 0 [ 1 ]; out 1 [] ];
  check_is Ev_perfect.spec ~n:2 "violated" [ crash 0; out 0 [] ]

(* --- S and EvS --- *)

let test_strong () =
  (* someone (p0) is never suspected *)
  check_is Strong.spec ~n:3 "sat" [ out 0 [ 1 ]; out 1 []; out 2 [ 1 ]; out 1 [ 1 ] ];
  (* everyone live gets suspected at some point: perpetual accuracy broken *)
  check_is Strong.spec ~n:2 "violated" [ out 0 [ 1 ]; out 1 [ 0 ]; out 0 []; out 1 [] ]

let test_ev_strong () =
  (* every live location suspected once, but eventually p0 is trusted *)
  check_is Ev_strong.spec ~n:2 "sat" [ out 0 [ 1 ]; out 1 [ 0 ]; out 0 []; out 1 [] ];
  check_is Ev_strong.spec ~n:2 "undecided" [ out 0 [ 1 ]; out 1 [ 0 ] ]

(* --- Sigma --- *)

let test_sigma () =
  check_is Sigma.spec ~n:3 "sat"
    [ out 0 [ 0; 1 ]; out 1 [ 1; 2 ]; out 2 [ 0; 1; 2 ]; out 0 [ 0; 1 ]; out 1 [ 1 ]; out 2 [ 1; 2 ] ];
  (* wait: last outputs must be subsets of live; all live here *)
  check_is Sigma.spec ~n:2 "violated" [ out 0 [ 0 ]; out 1 [ 1 ] ];
  (* intersection violated across time at one location too *)
  check_is Sigma.spec ~n:2 "violated" [ out 0 [ 0 ]; out 0 [ 1 ]; out 1 [ 0; 1 ] ]

let test_sigma_completeness () =
  check_is Sigma.spec ~n:2 "undecided" [ out 0 [ 0; 1 ]; out 1 [ 0; 1 ]; crash 1; out 0 [ 0; 1 ] ];
  check_is Sigma.spec ~n:2 "sat" [ out 0 [ 0; 1 ]; out 1 [ 0; 1 ]; crash 1; out 0 [ 0 ] ]

(* --- anti-Omega, Omega_k, Psi_k --- *)

let test_anti_omega () =
  check_is Anti_omega.spec ~n:3 "sat" [ lead 0 2; lead 1 2; lead 2 2 ];
  (* every live location named: not yet stabilized *)
  check_is Anti_omega.spec ~n:2 "undecided" [ lead 0 1; lead 1 0 ]

let test_omega_k () =
  let spec = Omega_k.spec ~k:2 in
  check_is spec ~n:3 "sat"
    [ Fd_event.Output (0, set [ 0; 1 ]); Fd_event.Output (1, set [ 0; 2 ]);
      Fd_event.Output (2, set [ 0; 2 ]) ];
  check_is spec ~n:3 "violated" [ Fd_event.Output (0, set [ 0 ]) ];
  (* no common live location in stable outputs *)
  check_is spec ~n:4 "undecided"
    [ Fd_event.Output (0, set [ 0; 1 ]); Fd_event.Output (1, set [ 2; 3 ]);
      Fd_event.Output (2, set [ 2; 3 ]); Fd_event.Output (3, set [ 2; 3 ]) ]

let test_psi_k () =
  let spec = Psi_k.spec ~k:2 in
  check_is spec ~n:3 "sat"
    [ Fd_event.Output (0, set [ 0; 1 ]); Fd_event.Output (1, set [ 0; 1 ]);
      Fd_event.Output (2, set [ 0; 1 ]) ];
  check_is spec ~n:3 "undecided"
    [ Fd_event.Output (0, set [ 0; 1 ]); Fd_event.Output (1, set [ 1; 2 ]);
      Fd_event.Output (2, set [ 0; 1 ]) ]

(* --- negative controls --- *)

let test_marabout () =
  (* prescient output of the final faulty set: accepted by the spec *)
  check_is Marabout.spec ~n:2 "sat" [ out 0 [ 1 ]; out 1 [ 1 ]; crash 1; out 0 [ 1 ] ];
  (* truthful-now but wrong-later output: rejected *)
  check_is Marabout.spec ~n:2 "violated" [ out 0 []; out 1 []; crash 1; out 0 [ 1 ] ];
  let r = Marabout.refutation ~n:2 in
  Alcotest.(check bool) "patterns differ" false
    (Loc.Set.equal r.Marabout.pattern_a r.Marabout.pattern_b);
  Alcotest.(check bool) "requires prediction" true
    (Marabout.requires_prediction ~n:2 ~first_output_after:0)

let test_dk_counterexample () =
  let k = 3 in
  let original, reordered = D_k.closure_counterexample ~k in
  let spec = D_k.spec ~k in
  Alcotest.(check bool) "original accepted" true
    (Verdict.is_sat (Afd.check spec ~n:2 original));
  Alcotest.(check bool) "reordered is a constrained reordering" true
    (Trace_ops.is_constrained_reordering ~of_:original reordered);
  Alcotest.(check bool) "reordered rejected: D_k is not closed" true
    (Verdict.is_violated (Afd.check spec ~n:2 reordered))

(* --- closure properties on generated valid traces (E3) --- *)

let closure_case name spec ~n ~detector ~crash_at =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Random.State.make [| 42 |] in
      List.iter
        (fun seed ->
          let t =
            Afd_automata.generate_trace ~detector ~n ~seed ~crash_at ~steps:80
          in
          match Afd.check_all_properties spec ~n ~rng ~trials:60 t with
          | Ok () -> ()
          | Error e -> Alcotest.fail e)
        [ 1; 2; 3; 4; 5 ])

let noise_sets =
  Afd_automata.noise_of_list
    [ (0, set [ 1 ]); (0, set [ 1; 2 ]); (1, set [ 0 ]); (2, set [ 0; 1 ]) ]

let noise_leaders = Afd_automata.noise_of_list [ (0, 2); (1, 0); (2, 1) ]

let closure_suite =
  [ closure_case "closure: Omega via Algorithm 1" Omega.spec ~n:3
      ~detector:(Afd_automata.fd_omega ~n:3) ~crash_at:[ (10, 1) ];
    closure_case "closure: Omega via noisy automaton" Omega.spec ~n:3
      ~detector:(Afd_automata.fd_omega_noisy ~n:3 ~noise:noise_leaders)
      ~crash_at:[ (12, 2) ];
    closure_case "closure: P via Algorithm 2" Perfect.spec ~n:3
      ~detector:(Afd_automata.fd_perfect ~n:3) ~crash_at:[ (8, 0) ];
    closure_case "closure: EvP via noisy automaton" Ev_perfect.spec ~n:3
      ~detector:(Afd_automata.fd_ev_perfect_noisy ~n:3 ~noise:noise_sets)
      ~crash_at:[ (15, 2) ];
    closure_case "closure: S on P traces" Strong.spec ~n:3
      ~detector:(Afd_automata.fd_perfect ~n:3) ~crash_at:[ (9, 1) ];
    closure_case "closure: EvS on noisy EvP traces" Ev_strong.spec ~n:3
      ~detector:(Afd_automata.fd_ev_perfect_noisy ~n:3 ~noise:noise_sets)
      ~crash_at:[ (15, 2) ];
  ]

let suite =
  [ Alcotest.test_case "Omega accepts" `Quick test_omega_accepts;
    Alcotest.test_case "Omega rejects" `Quick test_omega_rejects;
    Alcotest.test_case "P accepts" `Quick test_p_accepts;
    Alcotest.test_case "P rejects" `Quick test_p_rejects;
    Alcotest.test_case "EvP accepts" `Quick test_evp_accepts;
    Alcotest.test_case "EvP rejects" `Quick test_evp_rejects;
    Alcotest.test_case "S" `Quick test_strong;
    Alcotest.test_case "EvS" `Quick test_ev_strong;
    Alcotest.test_case "Sigma intersection" `Quick test_sigma;
    Alcotest.test_case "Sigma completeness" `Quick test_sigma_completeness;
    Alcotest.test_case "anti-Omega" `Quick test_anti_omega;
    Alcotest.test_case "Omega_k" `Quick test_omega_k;
    Alcotest.test_case "Psi_k" `Quick test_psi_k;
    Alcotest.test_case "Marabout (not an AFD: needs prediction)" `Quick test_marabout;
    Alcotest.test_case "D_k reordering counterexample" `Quick test_dk_counterexample;
  ]
  @ closure_suite
