(* The E1-E7 experiment matrix, as a library.

   Extracted from the bench harness so that the test suite can run the
   very same matrix (the determinism tests compare its verdict tables
   across domain counts).  Each entry declares detector/spec builders,
   a seed count, fault patterns and a step budget; the engine
   ([Afd_runner]) derives one scheduler seed per cell and runs cells
   across domains. *)

open Afd_ioa
open Afd_core
open Afd_system
module C = Afd_consensus
module R = Afd_runner
module Check = Check
module Explore_bench = Explore_bench
module Live_bench = Live_bench
module Churn_bench = Churn_bench
module Symm_bench = Symm_bench

let verdict_str = function
  | Verdict.Sat -> "sat"
  | Verdict.Violated m -> "VIOLATED: " ^ m
  | Verdict.Undecided m -> "undecided: " ^ m

let ok_str = function Ok _ -> "ok" | Error e -> "FAIL: " ^ e

let s12 = "E1/E2  Algorithms 1-2 implement Omega / P / EvP"
let s3 = "E3  AFD closure properties (validity, sampling, reordering)"
let s4 = "E4  Self-implementability: A^self uses D to solve a renaming of D"
let s56 = "E5/E6  Reductions and the strict hierarchy"
let s7 = "E7  Consensus is bounded; no representative AFD (Thm 21)"

let fd_check_entry ~id ~label ~detector ~spec ~n ~faults ~steps =
  R.Matrix.entry ~id ~section:s12 ~label ~seeds:5 ~faults:[ faults ]
    (fun ~seed ~faults ->
      let t =
        Afd_automata.generate_trace ~detector:(detector ()) ~n ~seed
          ~crash_at:faults ~steps
      in
      R.Metrics.outcome ~steps:(List.length t) (Afd.check spec ~n t))

let closure_entry ~id ~label ~detector ~spec ~faults ~steps =
  R.Matrix.entry ~id ~section:s3 ~label ~seeds:3 ~faults:[ faults ]
    ~show:(fun os ->
      Printf.sprintf "  %-40s %s" label
        (if R.Metrics.all_sat os then
           Printf.sprintf "closed (%d traces x 40 transforms)" (List.length os)
         else "FAILED"))
    (fun ~seed ~faults ->
      let rng = Random.State.make [| seed |] in
      let t =
        Afd_automata.generate_trace ~detector:(detector ()) ~n:3 ~seed
          ~crash_at:faults ~steps
      in
      R.Metrics.of_result ~steps:(List.length t)
        (Afd.check_all_properties spec ~n:3 ~rng ~trials:40 t))

let dk_entry =
  let label = "D_k (negative control)" in
  R.Matrix.entry ~id:"E3.dk" ~section:s3 ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      let orig, reord = D_k.closure_counterexample ~k:2 in
      let a = Afd.check (D_k.spec ~k:2) ~n:2 orig
      and b = Afd.check (D_k.spec ~k:2) ~n:2 reord in
      let ok = Verdict.is_sat a && Verdict.is_violated b in
      R.Metrics.outcome
        ~steps:(List.length orig + List.length reord)
        ~detail:(Printf.sprintf "original=%s, reordering=%s" (verdict_str a) (verdict_str b))
        (if ok then Verdict.Sat
         else Verdict.Violated "D_k negative control did not separate"))

let self_impl_entry ~id ~label ~spec ~detector ~faults =
  R.Matrix.entry ~id ~section:s4 ~label ~seeds:4 ~faults:[ faults ]
    ~show:(R.Matrix.show_seeds_sat ~label ~ok:"theorem 13 holds")
    (fun ~seed ~faults ->
      R.Metrics.of_result ~steps:400
        (Self_impl.check_theorem13 ~spec ~detector:(detector ()) ~n:3
           ~seed ~crash_at:faults ~steps:400))

let p_trace seed =
  Afd_automata.generate_trace ~detector:(Afd_automata.fd_perfect ~n:3)
    ~n:3 ~seed ~crash_at:[ (10, 1) ] ~steps:120

let omega_trace seed =
  Afd_automata.generate_trace ~detector:(Afd_automata.fd_omega ~n:3)
    ~n:3 ~seed ~crash_at:[ (10, 1) ] ~steps:120

let reduction_entry ~id ~label ~mk_trace ~reduction =
  R.Matrix.entry ~id ~section:s56 ~label ~seeds:3 ~faults:[ [ (10, 1) ] ]
    ~show:(R.Matrix.show_sat ~label ~ok:"sound")
    (fun ~seed ~faults:_ ->
      let t = mk_trace seed in
      R.Metrics.outcome ~steps:(List.length t)
        (Reduction.check_on_trace (reduction ()) ~n:3 t))

let separation_entry ~id ~label ?pre_lines ~refute () =
  R.Matrix.entry ~id ~section:s56 ~label ?pre_lines
    ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      match refute () with
      | Ok _ -> R.Metrics.outcome ~detail:"candidate refuted" Verdict.Sat
      | Error e -> R.Metrics.outcome ~detail:("FAILED: " ^ e) (Verdict.Violated e))

(* E7's witness machinery: sub-seeds for the sampled fair traces are
   derived from the cell seed, one splitmix64 stream per purpose. *)
let e7_witness_traces ~seed =
  let witness_external = function
    | Act.Crash _ | Act.Propose _ | Act.Decide _ -> true
    | Act.Send _ | Act.Receive _ | Act.Fd _ | Act.Step _ | Act.Query _ | Act.Resp _
    | Act.Decide_id _ -> false
  in
  let seeds =
    List.init 6 (fun i -> Scheduler.Seed.derive ~root:seed ~key:"witness" ~index:i)
  in
  List.map (List.filter witness_external)
    (C.Witness.sample_traces ~n:3 ~seeds ~steps:150)

let e7_crash_indep =
  R.Matrix.entry ~id:"E7.crash-independence" ~section:s7
    ~label:"witness U: crash independence"
    ~show:(fun os ->
      Printf.sprintf "  witness U: crash independence          %s"
        (List.hd os).R.Metrics.detail)
    (fun ~seed ~faults:_ ->
      let traces = e7_witness_traces ~seed in
      let r =
        Bounded_problem.check_crash_independent (C.Witness.automaton ~n:3)
          ~is_crash:(fun a -> Act.is_crash a <> None)
          ~traces
      in
      R.Metrics.of_result
        ~steps:(List.fold_left (fun acc t -> acc + List.length t) 0 traces)
        ~detail:(ok_str r) r)

let e7_bounded_length =
  let bound = C.Witness.output_bound ~n:3 in
  R.Matrix.entry ~id:"E7.bounded-length" ~section:s7
    ~label:"witness U: bounded length"
    ~show:(fun os ->
      Printf.sprintf "  witness U: bounded length (b = %d)      %s" bound
        (List.hd os).R.Metrics.detail)
    (fun ~seed ~faults:_ ->
      let traces = e7_witness_traces ~seed in
      let r =
        Bounded_problem.check_bounded_length ~is_output:Act.is_decide ~bound ~traces
      in
      R.Metrics.of_result
        ~steps:(List.fold_left (fun acc t -> acc + List.length t) 0 traces)
        ~detail:(ok_str r) r)

let e7_extraction =
  R.Matrix.entry ~id:"E7.extraction" ~section:s7
    ~label:"extraction after quiescence"
    ~show:(fun os ->
      Printf.sprintf "  extraction after quiescence: %s" (List.hd os).R.Metrics.detail)
    (fun ~seed ~faults:_ ->
      let r =
        C.Extraction.run ~n:3 ~target:Ev_perfect.spec
          ~candidate:C.Extraction.echo_decision ~late_crash:1 ~seed ~steps:4000
      in
      let detail =
        Printf.sprintf "views equal=%b  A=%s  B=%s  refuted=%b"
          r.C.Extraction.observations_equal
          (verdict_str r.C.Extraction.verdict_a)
          (verdict_str r.C.Extraction.verdict_b)
          r.C.Extraction.refuted
      in
      R.Metrics.outcome ~steps:4000 ~detail
        (if r.C.Extraction.observations_equal && r.C.Extraction.refuted then
           Verdict.Sat
         else Verdict.Violated "extraction experiment did not refute the candidate"))

let matrix () =
  let noise3 =
    Afd_automata.noise_of_list
      [ (0, Loc.Set.singleton 1); (1, Loc.Set.singleton 2); (2, Loc.Set.of_list [ 0; 1 ]) ]
  in
  [ (* E1/E2 *)
    fd_check_entry ~id:"E1.omega" ~label:"FD-Omega (Alg 1) vs T_Omega"
      ~detector:(fun () -> Afd_automata.fd_omega ~n:4)
      ~spec:Omega.spec ~n:4 ~faults:[ (10, 1); (30, 3) ] ~steps:150;
    fd_check_entry ~id:"E2.p" ~label:"FD-P (Alg 2 + erratum guard) vs T_P"
      ~detector:(fun () -> Afd_automata.fd_perfect ~n:4)
      ~spec:Perfect.spec ~n:4 ~faults:[ (12, 0) ] ~steps:150;
    fd_check_entry ~id:"E2.evp" ~label:"FD-P renamed vs T_EvP"
      ~detector:(fun () -> Afd_automata.fd_perfect ~n:4)
      ~spec:Ev_perfect.spec ~n:4 ~faults:[ (12, 0) ] ~steps:150;
    (* E3 *)
    closure_entry ~id:"E3.omega" ~label:"Omega"
      ~detector:(fun () -> Afd_automata.fd_omega ~n:3)
      ~spec:Omega.spec ~faults:[ (9, 2) ] ~steps:90;
    closure_entry ~id:"E3.p" ~label:"P"
      ~detector:(fun () -> Afd_automata.fd_perfect ~n:3)
      ~spec:Perfect.spec ~faults:[ (9, 2) ] ~steps:90;
    closure_entry ~id:"E3.evp" ~label:"EvP (noisy)"
      ~detector:(fun () -> Afd_automata.fd_ev_perfect_noisy ~n:3 ~noise:noise3)
      ~spec:Ev_perfect.spec ~faults:[ (11, 2) ] ~steps:110;
    dk_entry;
    (* E4 *)
    self_impl_entry ~id:"E4.omega" ~label:"Omega" ~spec:Omega.spec
      ~detector:(fun () -> Afd_automata.fd_omega ~n:3)
      ~faults:[ (11, 2) ];
    self_impl_entry ~id:"E4.p" ~label:"P" ~spec:Perfect.spec
      ~detector:(fun () -> Afd_automata.fd_perfect ~n:3)
      ~faults:[ (13, 0) ];
    self_impl_entry ~id:"E4.evp" ~label:"EvP (noisy)" ~spec:Ev_perfect.spec
      ~detector:(fun () ->
        Afd_automata.fd_ev_perfect_noisy ~n:3
          ~noise:(Afd_automata.noise_of_list [ (0, Loc.Set.singleton 1) ]))
      ~faults:[ (17, 1) ];
    (* E5/E6: downward reductions *)
    reduction_entry ~id:"E5.p-evp" ~label:"P -> EvP" ~mk_trace:p_trace
      ~reduction:(fun () -> Reduction.p_to_evp);
    reduction_entry ~id:"E5.p-s" ~label:"P -> S" ~mk_trace:p_trace
      ~reduction:(fun () -> Reduction.p_to_strong);
    reduction_entry ~id:"E5.p-omega" ~label:"P -> Omega" ~mk_trace:p_trace
      ~reduction:(fun () -> Reduction.p_to_omega ~n:3);
    reduction_entry ~id:"E5.p-sigma" ~label:"P -> Sigma" ~mk_trace:p_trace
      ~reduction:(fun () -> Reduction.p_to_sigma ~n:3);
    reduction_entry ~id:"E5.omega-antiomega" ~label:"Omega -> anti-Omega"
      ~mk_trace:omega_trace
      ~reduction:(fun () -> Reduction.omega_to_anti_omega ~n:3);
    reduction_entry ~id:"E5.omega-omega2" ~label:"Omega -> Omega_2"
      ~mk_trace:omega_trace
      ~reduction:(fun () -> Reduction.omega_to_omega_k ~n:3 ~k:2);
    reduction_entry ~id:"E5.omega-psi2" ~label:"Omega -> Psi_2"
      ~mk_trace:omega_trace
      ~reduction:(fun () -> Reduction.omega_to_psi_k ~n:3 ~k:2);
    reduction_entry ~id:"E5.compose" ~label:"P -> EvP -> Omega (Thm 15 compose)"
      ~mk_trace:p_trace
      ~reduction:(fun () -> Reduction.(compose p_to_evp (evp_to_omega ~n:3)));
    (* E6: separations *)
    separation_entry ~id:"E6.evp-p" ~label:"EvP -/-> P (echo candidate)"
      ~pre_lines:
        [ "  -- upward directions (separations refute extraction candidates) --" ]
      ~refute:(fun () ->
        let echo _i hist = match List.rev hist with [] -> None | h :: _ -> Some h in
        Reduction.refute ~candidate:echo ~target:Perfect.spec
          (Reduction.evp_not_to_p ~len:5))
      ();
    separation_entry ~id:"E6.omega-evp" ~label:"Omega -/-> EvP (constant candidate)"
      ~refute:(fun () ->
        Reduction.refute
          ~candidate:(fun _ _ -> Some Loc.Set.empty)
          ~target:Ev_perfect.spec (Reduction.omega_not_to_evp ~len:5))
      ();
    separation_entry ~id:"E6.antiomega-omega-self"
      ~label:"anti-Omega -/-> Omega (self-leader)"
      ~refute:(fun () ->
        Reduction.refute ~candidate:(fun i _ -> Some i) ~target:Omega.spec
          (Reduction.anti_omega_not_to_omega ~len:5))
      ();
    separation_entry ~id:"E6.antiomega-omega-min"
      ~label:"anti-Omega -/-> Omega (min-unnamed)"
      ~refute:(fun () ->
        Reduction.refute
          ~candidate:(fun _i hist ->
            match List.rev hist with
            | [] -> None
            | l :: _ -> Loc.min_not_in ~n:3 (Loc.equal l))
          ~target:Omega.spec
          (Reduction.anti_omega_not_to_omega ~len:5))
      ();
    (* E7 *)
    e7_crash_indep;
    e7_bounded_length;
    e7_extraction;
  ]
  (* MX: exploration throughput *)
  @ Explore_bench.entries ()
  (* ML: liveness model checking *)
  @ Live_bench.entries ()
  (* CN: churn simulation on the mega event-queue engine (it never
     touches the task scheduler) *)
  @ Churn_bench.entries ()
  (* SY: orbit reduction, quotiented runs differential against the
     unreduced model checker *)
  @ Symm_bench.entries ()
