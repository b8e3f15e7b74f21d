(* Benchmark / experiment harness.

   The paper (PODC'12 theory) has no measurement tables; its "results"
   are algorithms and theorems.  This harness regenerates each of them
   as an experiment row (E1-E18, A1-A5, F1 of DESIGN.md) whose cell is
   a verdict.  EXPERIMENTS.md records the expected output.  Nothing
   here is timed: performance is measured by benchmark/main.exe. *)

open Afd_ioa
open Afd_core
open Afd_system
module C = Afd_consensus
module T = Afd_tree

let section title = Format.printf "@.== %s ==@." title

let row fmt = Format.printf fmt

let verdict_str = Afd_bench.verdict_str

(* ------------------------------------------------------------------ *)
(* E1-E7: the declarative matrix (Afd_bench) on the parallel runner    *)
(* ------------------------------------------------------------------ *)

(* Each entry declares detector/spec builders, a seed count, fault
   patterns and a step budget; the engine derives one scheduler seed
   per cell from --root-seed (splitmix64, Scheduler.Seed), runs the
   cells on --jobs domains, and renders the historical rows.  The
   verdict table is identical for any --jobs by construction.  The
   matrix itself lives in lib/bench so the test suite can re-run it. *)

module R = Afd_runner

let matrix = Afd_bench.matrix ()

(* ------------------------------------------------------------------ *)
(* E8: Theorem 44 (E_C well-formed)                                    *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  Theorem 44: E_C is a well-formed environment";
  let n = 3 in
  let run seed crash_at =
    let comp =
      Composition.make ~name:"env-only"
        (Component.C (Crash.automaton ~n ~crashable:(Loc.set_of_universe ~n))
        :: Environment.consensus ~n)
    in
    let cfg =
      { Scheduler.policy = Scheduler.Random seed;
        max_steps = 60;
        stop_when_quiescent = false;
        forced = Crash.forces crash_at;
      }
    in
    let t = List.map snd (Scheduler.run comp cfg).Scheduler.fired in
    C.Spec.environment_well_formedness ~n t
  in
  let ok =
    List.for_all
      (fun (s, c) -> not (Verdict.is_violated (run s c)))
      [ (1, []); (2, [ (0, 1) ]); (3, [ (2, 0); (3, 2) ]); (4, [ (50, 2) ]) ]
  in
  row "  E_C well-formedness over 4 fault patterns: %s@." (if ok then "ok" else "FAILED")

(* ------------------------------------------------------------------ *)
(* E9: consensus with AFDs                                             *)
(* ------------------------------------------------------------------ *)

let consensus_sweep name ~n ~f mk_net patterns =
  let sat = ref 0 and und = ref 0 and bad = ref 0 in
  let decided_steps = ref [] in
  List.iter
    (fun (seed, crash_at, steps) ->
      let crashable =
        List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
      in
      let net : Net.t = mk_net ~crashable in
      let r = Net.run net ~seed ~crash_at ~steps in
      (match C.Spec.check ~n ~f r.Net.trace with
      | Verdict.Sat -> incr sat
      | Verdict.Undecided _ -> incr und
      | Verdict.Violated _ -> incr bad);
      let last = ref 0 in
      List.iteri (fun k a -> if Act.is_decide a then last := k) r.Net.trace;
      decided_steps := !last :: !decided_steps)
    patterns;
  let avg =
    match !decided_steps with
    | [] -> 0.
    | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)
  in
  row "  %-34s sat=%d undecided=%d violated=%d  avg-steps-to-decide=%.0f@." name !sat
    !und !bad avg

let e9 () =
  section "E9  f-crash-tolerant consensus using AFDs";
  let mk_patterns seeds crash steps = List.map (fun s -> (s, crash, steps)) seeds in
  consensus_sweep "flood+P n=3 f=2, crash-free" ~n:3 ~f:2
    (fun ~crashable -> C.Flood_p.net ~n:3 ~f:2 ~crashable ())
    (mk_patterns [ 1; 2; 3; 4; 5 ] [] 2000);
  consensus_sweep "flood+P n=3 f=2, two crashes" ~n:3 ~f:2
    (fun ~crashable -> C.Flood_p.net ~n:3 ~f:2 ~crashable ())
    (mk_patterns [ 1; 2; 3; 4; 5 ] [ (10, 2); (60, 0) ] 2600);
  consensus_sweep "flood+P n=5 f=4, two crashes" ~n:5 ~f:4
    (fun ~crashable -> C.Flood_p.net ~n:5 ~f:4 ~crashable ())
    (mk_patterns [ 1; 2; 3 ] [ (25, 1); (80, 4) ] 9000);
  consensus_sweep "synod+Omega n=3 f=1, crash-free" ~n:3 ~f:1
    (fun ~crashable -> C.Synod_omega.net ~n:3 ~crashable ())
    (mk_patterns [ 1; 2; 3; 4; 5 ] [] 4000);
  consensus_sweep "synod+Omega n=3 f=1, leader crash" ~n:3 ~f:1
    (fun ~crashable -> C.Synod_omega.net ~n:3 ~crashable ())
    (mk_patterns [ 1; 2; 3; 4; 5 ] [ (30, 0) ] 6000);
  consensus_sweep "synod+Omega n=5 f=2" ~n:5 ~f:2
    (fun ~crashable -> C.Synod_omega.net ~n:5 ~crashable ())
    (mk_patterns [ 1; 2; 3 ] [ (40, 0); (90, 3) ] 9000);
  consensus_sweep "synod over EvP->Omega (Lemma 16)" ~n:3 ~f:1
    (fun ~crashable -> C.Via_reduction.net ~n:3 ~crashable ())
    (mk_patterns [ 1; 2; 3 ] [ (50, 2) ] 9000)

(* ------------------------------------------------------------------ *)
(* E10/E11/E12: execution trees, hooks, bivalence                     *)
(* ------------------------------------------------------------------ *)

let tree_experiment label ~n ~f ~td =
  let sys = T.Tree_system.flood_system ~n ~f in
  match
    T.Tagged_tree.build ~system:sys ~detector:C.Flood_p.detector_name ~td
      ~max_nodes:3_000_000
  with
  | Error e -> row "  %-22s build failed: %s@." label e
  | Ok tree ->
    let va = T.Valence.classify tree in
    let hooks = T.Hook.find_all va in
    let bad = List.filter (fun h -> Result.is_error (T.Hook.check_theorem59 va h)) hooks in
    let crits =
      List.filter_map T.Hook.critical_location hooks |> List.sort_uniq Loc.compare
    in
    let u = T.Flp.unconstrained va ~max_steps:5000 in
    let fw = T.Flp.fair_windowed va ~window:12 ~max_steps:5000 in
    row
      "  %-22s nodes=%-6d root-biv=%b biv=%-5d blocked=%d hooks=%-5d thm59-fail=%d \
       crit-locs=%s  horizon(any/fair)=%d/%d@."
      label
      (T.Tagged_tree.size tree)
      (T.Valence.root_bivalent va)
      (T.Valence.count va T.Valence.Bivalent)
      (T.Valence.count va T.Valence.Blocked)
      (List.length hooks) (List.length bad)
      (String.concat "," (List.map Loc.to_string crits))
      u.T.Flp.survived fw.T.Flp.survived

let e10_e11_e12 () =
  section "E10/E11/E12  Tagged trees, hooks (Thm 59), bivalence horizon";
  tree_experiment "n=2, p1 crashes" ~n:2 ~f:1
    ~td:(T.Tree_system.td_one_crash ~n:2 ~crash:1 ~pre:1 ~post:3);
  tree_experiment "n=2, p0 crashes" ~n:2 ~f:1
    ~td:(T.Tree_system.td_one_crash ~n:2 ~crash:0 ~pre:1 ~post:3);
  tree_experiment "n=2, crash-free" ~n:2 ~f:1 ~td:(T.Tree_system.td_no_crash ~n:2 ~rounds:3);
  tree_experiment "n=2, f=0" ~n:2 ~f:0 ~td:(T.Tree_system.td_no_crash ~n:2 ~rounds:2);
  if Sys.getenv_opt "AFD_BENCH_LARGE" <> None then
    (* 441,489 quotient nodes, ~8.6 s on a shared 2-core host; measured result
       recorded in EXPERIMENTS.md *)
    tree_experiment "n=3, p2 crashes" ~n:3 ~f:1
      ~td:(T.Tree_system.td_one_crash ~n:3 ~crash:2 ~pre:1 ~post:2)
  else row "  (set AFD_BENCH_LARGE=1 for the n=3 tree: 441,489 nodes)@."

(* ------------------------------------------------------------------ *)
(* E13: realistic (message-passing) EvP under partial synchrony       *)
(* ------------------------------------------------------------------ *)

let e13 () =
  section "E13  Heartbeat EvP: partial synchrony vs adversarial scheduling";
  let n = 3 in
  let trace_of run =
    Act.fd_trace_set ~detector:Heartbeat.detector_name run
  in
  let fair =
    let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:(Loc.Set.singleton 2) () in
    trace_of (Net.run net ~seed:5 ~crash_at:[ (60, 2) ] ~steps:1400).Net.trace
  in
  row "  fair scheduler, one crash:             %s@."
    (verdict_str (Afd.check Ev_perfect.spec ~n fair));
  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:Loc.Set.empty () in
  let starved =
    trace_of
      (List.map snd
         (Scheduler.run_custom net.Net.composition ~max_steps:1500
            ~choose:(Adversary.starve_channel ~seed:9 ~src:1 ~dst:0)).Scheduler.fired)
  in
  row "  starved channel p1->p0:                %s@."
    (verdict_str (Afd.check Ev_perfect.spec ~n starved));
  let delayed =
    trace_of
      (List.map snd
         (Scheduler.run_custom net.Net.composition ~max_steps:4000
            ~choose:(Adversary.delay_channel ~seed:9 ~src:1 ~dst:0 ~period:97)).Scheduler.fired)
  in
  let false_suspicions =
    List.length
      (List.filter
         (function Afd_core.Fd_event.Output (0, s) -> Loc.Set.mem 1 s | _ -> false)
         delayed)
  in
  row "  delayed channel (adaptive timeout):    %s after %d transient false suspicions@."
    (verdict_str (Afd.check Ev_perfect.spec ~n delayed))
    false_suspicions

(* ------------------------------------------------------------------ *)
(* E14: terminating reliable broadcast using P                        *)
(* ------------------------------------------------------------------ *)

let e14 () =
  section "E14  Terminating reliable broadcast (weak) using P";
  let run label ~crash_at =
    let crashable =
      List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
    in
    let sat = ref 0 and other = ref 0 in
    let sf = ref 0 and vals = ref 0 in
    List.iter
      (fun seed ->
        let net = C.Trb.net ~n:4 ~sender:0 ~value:true ~crashable in
        let r = Net.run net ~seed ~crash_at ~steps:2000 in
        (match C.Trb.check ~n:4 ~sender:0 r.Net.trace with
        | Verdict.Sat -> incr sat
        | _ -> incr other);
        List.iter
          (fun (_, d) ->
            match d with C.Trb.Value _ -> incr vals | C.Trb.Sender_faulty -> incr sf)
          (C.Trb.deliveries r.Net.trace))
      [ 1; 2; 3; 4; 5 ];
    row "  %-34s sat=%d other=%d  deliveries: value=%d SF=%d@." label !sat !other !vals !sf
  in
  run "live sender" ~crash_at:[];
  run "sender crashes at step 0" ~crash_at:[ (0, 0) ];
  run "sender crashes mid-broadcast" ~crash_at:[ (6, 0) ]

(* ------------------------------------------------------------------ *)
(* E15: the query-based participant detector (Section 10.1)           *)
(* ------------------------------------------------------------------ *)

let e15 () =
  section "E15  Query-based participant detector is representative for consensus";
  let net = C.Participant.consensus_net ~n:3 ~values:[ true; false; true ]
              ~crashable:(Loc.Set.singleton 2) in
  let r = Net.run net ~seed:4 ~crash_at:[ (40, 2) ] ~steps:3000 in
  row "  consensus using participant:  consensus=%s  detector=%s@."
    (verdict_str (C.Spec.check ~n:3 ~f:1 r.Net.trace))
    (verdict_str (C.Participant.check ~n:3 r.Net.trace));
  let net2 = C.Participant.extraction_net ~crashable:Loc.Set.empty in
  let r2 = Net.run net2 ~seed:5 ~crash_at:[] ~steps:3000 in
  row "  participant from consensus (n=2):  detector=%s (%d queries, %d responses)@."
    (verdict_str (C.Participant.check ~n:2 r2.Net.trace))
    (List.length (C.Participant.queries r2.Net.trace))
    (List.length (C.Participant.responses r2.Net.trace));
  row "  (contrast: Theorem 21 rules this out for AFDs; the query input leaks@.";
  row "   participation information that the unilateral AFD interface cannot.)@."

(* ------------------------------------------------------------------ *)
(* E16: consensus from Sigma + Omega, beyond the minority bound        *)
(* ------------------------------------------------------------------ *)

let e16 () =
  section "E16  Consensus from Sigma + Omega (dynamic quorums)";
  let sweep label ~n ~f ~crash_at ~steps seeds =
    let crashable =
      List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
    in
    let sat = ref 0 and other = ref 0 in
    List.iter
      (fun seed ->
        let net = C.Synod_sigma.net ~n ~crashable () in
        let r = Net.run net ~seed ~crash_at ~steps in
        match C.Spec.check ~n ~f r.Net.trace with
        | Verdict.Sat -> incr sat
        | _ -> incr other)
      seeds;
    row "  %-38s sat=%d other=%d@." label !sat !other
  in
  sweep "n=3 f=2 (two of three crash!)" ~n:3 ~f:2 ~crash_at:[ (30, 0); (70, 1) ]
    ~steps:6000 [ 1; 2; 3; 4; 5 ];
  sweep "n=4 f=3 (all but one crash)" ~n:4 ~f:3 ~crash_at:[ (20, 0); (50, 1); (90, 2) ]
    ~steps:9000 [ 1; 2; 3 ];
  (* contrast: majority-based synod stalls on the same pattern *)
  let net = C.Synod_omega.net ~n:3 ~crashable:(Loc.Set.of_list [ 0; 1 ]) () in
  let r = Net.run net ~seed:3 ~crash_at:[ (10, 0); (25, 1) ] ~steps:6000 in
  row "  majority synod on the f=2 pattern:     %s (safety intact, waits stall)@."
    (verdict_str (C.Spec.termination ~n:3 r.Net.trace))

(* ------------------------------------------------------------------ *)
(* E17: the reliable-FIFO substrate assumption (§4.3)                  *)
(* ------------------------------------------------------------------ *)

let e17 () =
  section "E17  Substrate assumption: flooding over degraded channels";
  let n = 3 in
  let net_with channels =
    let detector =
      Fd_bridge.lift_set ~detector:C.Flood_p.detector_name (Afd_automata.fd_perfect ~n)
    in
    Net.assemble ~n
      ~detectors:[ Component.C detector ]
      ~environment:(Environment.scripted ~values:[ true; false; true ])
      ~channels ~crashable:Loc.Set.empty
      ~processes:(C.Flood_p.processes ~n ~f:1) ()
  in
  let show label channels =
    let r = Net.run (net_with channels) ~seed:3 ~crash_at:[] ~steps:4000 in
    row "  %-28s %s@." label (verdict_str (C.Spec.check ~n ~f:1 r.Net.trace))
  in
  show "reliable FIFO (the model):" (Channel.all_pairs ~n);
  show "dropping every 2nd message:" (Channel.lossy_pairs ~n ~drop_every:2);
  show "duplicating every message:" (Channel.duplicating_pairs ~n)

(* ------------------------------------------------------------------ *)
(* E18: k-set agreement from Psi_k                                     *)
(* ------------------------------------------------------------------ *)

let e18 () =
  section "E18  k-set agreement from Psi_k (k parallel Synod instances)";
  let sweep label ~n ~k ~crash_at ~steps seeds =
    let crashable =
      List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
    in
    let sat = ref 0 and other = ref 0 in
    let max_distinct = ref 0 in
    List.iter
      (fun seed ->
        let net = C.Kset.net ~n ~k ~crashable in
        let r = Net.run net ~seed ~crash_at ~steps in
        (match C.Kset.check ~n ~k r.Net.trace with
        | Verdict.Sat -> incr sat
        | _ -> incr other);
        let distinct =
          List.length
            (List.sort_uniq Loc.compare (List.map snd (C.Kset.decisions r.Net.trace)))
        in
        if distinct > !max_distinct then max_distinct := distinct)
      seeds;
    row "  %-38s sat=%d other=%d  max distinct values=%d (k=%d)@." label !sat !other
      !max_distinct k
  in
  sweep "n=4 k=2, crash-free" ~n:4 ~k:2 ~crash_at:[] ~steps:9000 [ 1; 2; 3; 4; 5 ];
  sweep "n=4 k=2, one crash" ~n:4 ~k:2 ~crash_at:[ (40, 1) ] ~steps:9000 [ 1; 2; 3 ];
  sweep "n=3 k=1 (degenerates to consensus)" ~n:3 ~k:1 ~crash_at:[ (30, 2) ] ~steps:8000
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* A1-A4: ablations                                                    *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1  Ablation: tagged-tree size and hooks vs t_D length";
  List.iter
    (fun post ->
      let td = T.Tree_system.td_one_crash ~n:2 ~crash:1 ~pre:1 ~post in
      match
        T.Tagged_tree.build
          ~system:(T.Tree_system.flood_system ~n:2 ~f:1)
          ~detector:C.Flood_p.detector_name ~td ~max_nodes:3_000_000
      with
      | Error e -> row "  post=%d: %s@." post e
      | Ok tree ->
        let va = T.Valence.classify tree in
        let hooks = T.Hook.find_all va in
        row "  post=%d  |t_D|=%-3d nodes=%-6d bivalent=%-5d hooks=%d@." post
          (List.length td)
          (T.Tagged_tree.size tree)
          (T.Valence.count va T.Valence.Bivalent)
          (List.length hooks))
    [ 1; 2; 3; 4 ]

let a2 () =
  section "A2  Ablation: bivalence horizon vs fairness window";
  let td = T.Tree_system.td_one_crash ~n:2 ~crash:1 ~pre:1 ~post:3 in
  match
    T.Tagged_tree.build
      ~system:(T.Tree_system.flood_system ~n:2 ~f:1)
      ~detector:C.Flood_p.detector_name ~td ~max_nodes:3_000_000
  with
  | Error e -> row "  %s@." e
  | Ok tree ->
    let va = T.Valence.classify tree in
    List.iter
      (fun window ->
        let o = T.Flp.fair_windowed va ~window ~max_steps:5000 in
        row "  window=%-3d survived=%d exhausted=%b@." window o.T.Flp.survived
          o.T.Flp.exhausted)
      [ 2; 4; 8; 16; 32 ];
    let u = T.Flp.unconstrained va ~max_steps:5000 in
    row "  unconstrained: survived=%d exhausted=%b@." u.T.Flp.survived u.T.Flp.exhausted

let a3 () =
  section "A3  Ablation: consensus latency and message complexity vs n";
  List.iter
    (fun n ->
      let net = C.Flood_p.net ~n ~f:(n - 1) ~crashable:Loc.Set.empty () in
      let r = Net.run net ~seed:1 ~crash_at:[] ~steps:20000 in
      let last = ref 0 in
      List.iteri (fun k a -> if Act.is_decide a then last := k) r.Net.trace;
      let sends = List.length (List.filter Act.is_send r.Net.trace) in
      row "  flood+P n=%d f=%d: steps-to-last-decision=%d  messages=%d (= n(n-1)(f+1)=%d) (%s)@."
        n (n - 1) !last sends
        (n * (n - 1) * n)
        (verdict_str (C.Spec.check ~n ~f:(n - 1) r.Net.trace)))
    [ 2; 3; 4; 5 ];
  List.iter
    (fun crash_step ->
      let net = C.Synod_omega.net ~n:3 ~crashable:(Loc.Set.singleton 0) () in
      let r = Net.run net ~seed:2 ~crash_at:[ (crash_step, 0) ] ~steps:8000 in
      let last = ref 0 in
      List.iteri (fun k a -> if Act.is_decide a then last := k) r.Net.trace;
      row "  synod+Omega n=3, leader crash at %-4d: steps-to-last-decision=%d (%s)@."
        crash_step !last
        (verdict_str (C.Spec.check ~n:3 ~f:1 r.Net.trace)))
    [ 5; 20; 60; 200 ]

let a4 () =
  section "A4  Ablation: size of the constrained-reordering closure";
  List.iter
    (fun len ->
      let t =
        Afd_automata.generate_trace ~detector:(Afd_automata.fd_perfect ~n:3) ~n:3
          ~seed:3 ~crash_at:[ (4, 1) ] ~steps:len
      in
      let count = Trace_ops.count_reorderings_upto ~limit:1_000_000 t in
      row "  |t|=%-3d distinct constrained reorderings: %s@." (List.length t)
        (if count >= 1_000_000 then ">= 1e6" else string_of_int count))
    [ 4; 6; 8; 10; 12 ]

(* ------------------------------------------------------------------ *)
(* A5: heartbeat timeout sensitivity                                   *)
(* ------------------------------------------------------------------ *)

let a5 () =
  section "A5  Ablation: heartbeat detector vs initial timeout";
  let n = 3 in
  List.iter
    (fun timeout ->
      let net = Heartbeat.net ~n ~initial_timeout:timeout ~crashable:(Loc.Set.singleton 2) () in
      let r = Net.run net ~seed:5 ~crash_at:[ (60, 2) ] ~steps:1600 in
      let t = Act.fd_trace_set ~detector:Heartbeat.detector_name r.Net.trace in
      let false_susp =
        List.length
          (List.filter
             (function
               | Afd_core.Fd_event.Output (i, s) ->
                 (not (Loc.equal i 2)) && not (Loc.Set.subset s (Loc.Set.singleton 2))
               | Afd_core.Fd_event.Crash _ -> false)
             t)
      in
      (* steps until the crash of p2 is first suspected by p0 *)
      let detect_latency =
        let rec go k seen_crash = function
          | [] -> -1
          | Act.Crash 2 :: rest -> go (k + 1) true rest
          | Act.Fd { at = 0; payload = Act.Pset s; _ } :: _
            when seen_crash && Loc.Set.mem 2 s -> k
          | _ :: rest -> go (k + 1) seen_crash rest
        in
        go 0 false r.Net.trace
      in
      row "  timeout=%-3d verdict=%s  false-suspicion outputs=%d  crash-detection step=%d@."
        timeout
        (verdict_str (Afd.check Ev_perfect.spec ~n t))
        false_susp detect_latency)
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 architecture smoke                                     *)
(* ------------------------------------------------------------------ *)

let f1 () =
  section "F1  Figure 1 architecture";
  let n = 3 in
  let net = C.Flood_p.net ~n ~f:1 ~crashable:(Loc.Set.singleton 1) () in
  let comps = Array.length (Composition.components net.Net.composition) in
  let r = Net.run net ~seed:42 ~crash_at:[ (25, 1) ] ~steps:2000 in
  row "  components=%d (= n + n(n-1) + crash + FD + n envs = %d)@." comps
    (n + (n * (n - 1)) + 1 + 1 + n);
  row "  smoke run: %d events, decisions=%d, verdict=%s@."
    (List.length r.Net.trace)
    (List.length (Net.decisions r.Net.trace))
    (verdict_str (C.Spec.check ~n ~f:1 r.Net.trace))

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

type opts = {
  jobs : int;
  seeds : int option;
  json : string option;
  root_seed : int;
  smoke : bool;  (** matrix only (E1-E7), nonzero exit on violation *)
}

let usage () =
  prerr_endline
    "usage: main.exe [--jobs N] [--seeds N] [--json PATH] [--root-seed N] [--smoke]";
  exit 2

let parse_opts () =
  let defaults =
    { jobs = Domain.recommended_domain_count ();
      seeds = None;
      json = None;
      root_seed = 1;
      smoke = false;
    }
  in
  let int_of v = match int_of_string_opt v with Some n -> n | None -> usage () in
  let count_of flag v =
    let n = int_of v in
    if n < 1 then begin
      Printf.eprintf "main.exe: %s expects a positive count, got %d\n" flag n;
      usage ()
    end;
    n
  in
  let rec go o = function
    | [] -> o
    | "--jobs" :: v :: rest -> go { o with jobs = count_of "--jobs" v } rest
    | "--seeds" :: v :: rest -> go { o with seeds = Some (count_of "--seeds" v) } rest
    | "--json" :: v :: rest -> go { o with json = Some v } rest
    | "--root-seed" :: v :: rest -> go { o with root_seed = int_of v } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | _ -> usage ()
  in
  go defaults (List.tl (Array.to_list Sys.argv))

let () =
  let o = parse_opts () in
  Format.printf "Asynchronous Failure Detectors - experiment harness@.";
  Format.printf "(paper: Cornejo, Lynch, Sastry; each row regenerates a claim)@.";
  let cfg =
    { R.Engine.jobs = o.jobs; root_seed = o.root_seed; seeds_override = o.seeds }
  in
  let run = R.Engine.run cfg matrix in
  Format.printf "%a" R.Engine.pp run;
  (match o.json with
  | Some path ->
    R.Report.write ~path run;
    Format.printf "wrote %s@." path
  | None -> ());
  if o.smoke then begin
    let violated =
      List.exists
        (fun e -> (R.Metrics.exp_counts e).R.Metrics.violated > 0)
        run.R.Engine.exps
    in
    if violated then begin
      prerr_endline "smoke: violated verdicts in the experiment matrix";
      exit 1
    end;
    Format.printf "@.smoke ok.@."
  end
  else begin
    e8 ();
    e9 ();
    e10_e11_e12 ();
    e13 ();
    e14 ();
    e15 ();
    e16 ();
    e17 ();
    e18 ();
    a1 ();
    a2 ();
    a3 ();
    a4 ();
    a5 ();
    f1 ();
    Format.printf "@.done.@."
  end
