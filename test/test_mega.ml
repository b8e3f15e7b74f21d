(* The mega subsystem: calendar ordering, the small-n congruence
   differential against the boxed Scheduler path, engine determinism
   and the sampled monitor. *)

open Afd_ioa
open Afd_core
module M = Afd_mega

(* {2 Calendar} *)

let pop_all cal =
  let acc = ref [] in
  while M.Calendar.pop cal do
    acc := (M.Calendar.now cal, M.Calendar.ev_a cal) :: !acc
  done;
  List.rev !acc

let calendar_fifo () =
  let cal = M.Calendar.create () in
  let sched at a = M.Calendar.schedule cal ~at ~kind:0 ~a ~b:0 ~c:0 ~d:0 in
  sched 5 1;
  sched 3 2;
  sched 5 3;
  sched 3 4;
  Alcotest.(check (list (pair int int)))
    "same-time events pop in creation order"
    [ (3, 2); (3, 4); (5, 1); (5, 3) ]
    (pop_all cal)

let calendar_horizon () =
  let cal = M.Calendar.create () in
  let sched at a = M.Calendar.schedule cal ~at ~kind:0 ~a ~b:0 ~c:0 ~d:0 in
  (* far beyond the 4096-tick wheel horizon: overflow-heap path *)
  sched 10_000 1;
  sched 5_000 2;
  sched 10_000 3;
  sched 10 4;
  Alcotest.(check int) "pending" 4 (M.Calendar.pending cal);
  Alcotest.(check bool) "pop" true (M.Calendar.pop cal);
  Alcotest.(check int) "near event first" 4 (M.Calendar.ev_a cal);
  (* an event scheduled mid-run lands in order *)
  sched 20 5;
  Alcotest.(check (list (pair int int)))
    "heap drains in (time, seq) order"
    [ (20, 5); (5_000, 2); (10_000, 1); (10_000, 3) ]
    (pop_all cal);
  Alcotest.(check int) "empty" 0 (M.Calendar.pending cal)

let calendar_immediate () =
  let cal = M.Calendar.create () in
  let sched at a = M.Calendar.schedule cal ~at ~kind:0 ~a ~b:0 ~c:0 ~d:0 in
  sched 7 1;
  Alcotest.(check bool) "pop" true (M.Calendar.pop cal);
  (* scheduling at (or before) [now] is clamped to [now] and still
     delivered, after everything already queued at [now] *)
  sched 7 2;
  sched 3 3;
  Alcotest.(check (list (pair int int))) "clamped to now" [ (7, 2); (7, 3) ] (pop_all cal)

(* {2 Congruence differential: mega ≡ Scheduler at small n} *)

let kinds_for n =
  let base =
    [ M.Compat.Perfect;
      M.Compat.Sigma;
      M.Compat.Omega;
      M.Compat.Anti_omega;
      M.Compat.Silent;
      M.Compat.Flip_flop;
    ]
  in
  let ks = List.init n (fun i -> i + 1) in
  base
  @ List.concat_map (fun k -> [ M.Compat.Omega_k k; M.Compat.Psi_k k ]) ks

let set_trace = Alcotest.testable (Fd_event.pp_trace Loc.pp_set) (List.equal (Fd_event.equal Loc.Set.equal))
let leader_trace = Alcotest.testable (Fd_event.pp_trace Loc.pp) (List.equal (Fd_event.equal Loc.equal))

let scenario_gen =
  QCheck2.Gen.(
    let n = map (fun i -> 1 + i) (int_bound 4) in
    let crash = pair (int_bound 320) (int_bound 8) in
    tup5 n (int_bound 1000) (int_bound 1_000_000) (int_bound 300)
      (list_size (int_bound 5) crash))

let differential_case (n, ksel, seed, steps, crash_raw) =
  let crash_at = List.map (fun (s, l) -> (s, l mod n)) crash_raw in
  let kinds = kinds_for n in
  let kind = List.nth kinds (ksel mod List.length kinds) in
  if M.Compat.leader_valued kind then begin
    let mega = M.Compat.run_leader kind ~n ~seed ~crash_at ~steps in
    let boxed = M.Compat.reference_leader kind ~n ~seed ~crash_at ~steps in
    List.equal (Fd_event.equal Loc.equal) mega.M.Compat.trace boxed
    && M.Compat.spec_verdict_leader kind ~n mega.M.Compat.trace
       = M.Compat.spec_verdict_leader kind ~n boxed
  end
  else begin
    let mega = M.Compat.run_set kind ~n ~seed ~crash_at ~steps in
    let boxed = M.Compat.reference_set kind ~n ~seed ~crash_at ~steps in
    List.equal (Fd_event.equal Loc.Set.equal) mega.M.Compat.trace boxed
    && M.Compat.spec_verdict_set kind ~n mega.M.Compat.trace
       = M.Compat.spec_verdict_set kind ~n boxed
  end

let prop_differential =
  QCheck2.Test.make
    ~name:"mega ≡ Scheduler: fired sequences and spec verdicts (160 cases)" ~count:160
    scenario_gen differential_case

(* a couple of pinned corners the generator might miss *)
let differential_pinned () =
  (* quiescence: everyone crashes *)
  let kind = M.Compat.Perfect in
  let crash_at = [ (0, 0); (0, 1); (1, 2) ] in
  let mega = M.Compat.run_set kind ~n:3 ~seed:42 ~crash_at ~steps:200 in
  let boxed = M.Compat.reference_set kind ~n:3 ~seed:42 ~crash_at ~steps:200 in
  Alcotest.check set_trace "all-crash trace" boxed mega.M.Compat.trace;
  Alcotest.(check bool) "quiescent after all crash" true mega.M.Compat.quiescent;
  (* silent detector: starvation backstop never fires for disabled tasks *)
  let mega = M.Compat.run_set M.Compat.Silent ~n:4 ~seed:7 ~crash_at:[ (50, 0) ] ~steps:250 in
  let boxed = M.Compat.reference_set M.Compat.Silent ~n:4 ~seed:7 ~crash_at:[ (50, 0) ] ~steps:250 in
  Alcotest.check set_trace "silent trace" boxed mega.M.Compat.trace;
  (* flip-flop: aux state beyond the crash mask *)
  let mega = M.Compat.run_leader M.Compat.Flip_flop ~n:5 ~seed:9 ~crash_at:[ (20, 3) ] ~steps:300 in
  let boxed =
    M.Compat.reference_leader M.Compat.Flip_flop ~n:5 ~seed:9 ~crash_at:[ (20, 3) ] ~steps:300
  in
  Alcotest.check leader_trace "flip-flop trace" boxed mega.M.Compat.trace;
  (* forced entry for an already-crashed location is dropped, and the
     policy picks in the same step *)
  let crash_at = [ (10, 1); (12, 1); (12, 2) ] in
  let mega = M.Compat.run_set M.Compat.Sigma ~n:3 ~seed:3 ~crash_at ~steps:150 in
  let boxed = M.Compat.reference_set M.Compat.Sigma ~n:3 ~seed:3 ~crash_at ~steps:150 in
  Alcotest.check set_trace "dropped-forced trace" boxed mega.M.Compat.trace

(* {2 Engine: determinism and detector behaviour} *)

let small_cfg ?(detector = "hb-pc") ?(topology = M.Topology.Ring 2) ?(seed = 11) () =
  M.Engine.cfg ~procs:300 ~events:20_000 ~churn_rate:10.0 ~topology ~detector ~seed ()

let engine_deterministic () =
  let r1 = M.Engine.run (small_cfg ()) in
  let r2 = M.Engine.run (small_cfg ()) in
  Alcotest.(check string)
    "byte-identical deterministic summary"
    (M.Engine.deterministic_summary r1)
    (M.Engine.deterministic_summary r2);
  let r3 = M.Engine.run (small_cfg ~seed:12 ()) in
  Alcotest.(check bool)
    "different seed, different run" false
    (M.Engine.deterministic_summary r1 = M.Engine.deterministic_summary r3)

let engine_detects detector topology () =
  let r = M.Engine.run (small_cfg ~detector ~topology ()) in
  Alcotest.(check bool) "some churn happened" true (r.M.Engine.crashes + r.M.Engine.leaves > 0);
  Alcotest.(check bool) "faults were detected" true (r.M.Engine.detections > 0);
  Alcotest.(check bool)
    ("monitor not violated: " ^ Fmt.str "%a" Verdict.pp r.M.Engine.monitor_verdict)
    true
    (match r.M.Engine.monitor_verdict with Verdict.Violated _ -> false | _ -> true);
  Alcotest.(check bool) "CN gate" true (M.Engine.ok r)

let engine_churnless () =
  (* no churn: nothing to detect, nothing falsely suspected for long —
     the monitor must come out clean *)
  let c =
    M.Engine.cfg ~procs:200 ~events:15_000 ~churn_rate:0.0 ~topology:M.Topology.Grid
      ~detector:"hb-pc" ~seed:5 ()
  in
  let r = M.Engine.run c in
  Alcotest.(check int) "no crashes" 0 r.M.Engine.crashes;
  Alcotest.(check int) "no detections" 0 r.M.Engine.detections;
  Alcotest.(check bool) "monitor ok" true (M.Engine.ok r)

let engine_join_interning () =
  let c =
    M.Engine.cfg ~procs:100 ~events:30_000 ~churn_rate:30.0 ~topology:(M.Topology.Ring 2)
      ~detector:"hb-pc" ~seed:21 ()
  in
  let r = M.Engine.run c in
  Alcotest.(check bool) "joins happened" true (r.M.Engine.joins > 0);
  Alcotest.(check int)
    "universe grew by the joins" (100 + r.M.Engine.joins)
    r.M.Engine.final_count

(* Churn-heavy runs pinned byte for byte: their [fs=] and [dur=]
   fields go through the false-suspicion purge on every crash or
   leave, and every field through the Rng streams. *)
let golden_cfg detector seed =
  let topology = if detector = "vcube" then M.Topology.Hypercube else M.Topology.Ring 2 in
  M.Engine.cfg ~procs:10_000 ~events:200_000 ~topology ~detector ~seed ()

let engine_golden () =
  List.iter
    (fun (detector, seed, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s seed %d" detector seed)
        expected
        (M.Engine.deterministic_summary (M.Engine.run (golden_cfg detector seed))))
    [ ( "vcube",
        1,
        "vcube n0=10000 ev=200000 vt=41 live=9782/10154 churn=291/14/154/95 links=91/75 \
         part=32/32 msg=199703/140 det=86 lat=24/31/32 fs=3470 dur=2/2/2 mon=sat" );
      ( "hb-pc",
        1,
        "hb-pc n0=10000 ev=200000 vt=31 live=9782/10154 churn=291/14/154/95 links=91/75 \
         part=32/32 msg=177969/271 det=163 lat=19/24/24 fs=22 dur=0/0/0 mon=undecided \
         (sample.accuracy: a live observer still suspects a live peer)" );
      ( "vcube",
        2,
        "vcube n0=10000 ev=200000 vt=42 live=9762/10153 churn=302/17/153/106 links=77/61 \
         part=32/32 msg=199725/185 det=98 lat=25/31/34 fs=6225 dur=1/1/1 mon=sat" );
      ( "hb-pc",
        2,
        "hb-pc n0=10000 ev=200000 vt=31 live=9762/10153 churn=302/17/153/106 links=77/61 \
         part=32/32 msg=177481/311 det=174 lat=19/23/25 fs=33 dur=1/4/4 mon=undecided \
         (sample.accuracy: a live observer still suspects a live peer)" );
    ]

let engine_allocation () =
  List.iter
    (fun detector ->
      let c = golden_cfg detector 1 in
      let w0 = Gc.minor_words () in
      let r = M.Engine.run c in
      let per_event = (Gc.minor_words () -. w0) /. float_of_int r.M.Engine.processed in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f minor words per event <= 2" detector per_event)
        true (per_event <= 2.0))
    [ "vcube"; "hb-pc" ]

(* {2 Rng} *)

let derived_stream () = M.Rng.make (Scheduler.Seed.derive ~root:7 ~key:"test.rng" ~index:0)

let rng_golden () =
  let r = derived_stream () in
  Alcotest.(check (list int))
    "first 32 draws"
    [ 937413738; 939298720; 752682302; 1028659116; 16315513; 983088902; 1053326157;
      833610303; 102108263; 707416477; 618651246; 122057345; 516949002; 131363709;
      53754825; 617729683; 420706014; 367045293; 278733222; 1065417567; 407395125;
      575996968; 753747675; 962804358; 961141956; 130151038; 97569508; 984867475;
      514226439; 350762100; 923759701; 222634989 ]
    (List.init 32 (fun _ -> M.Rng.int r 0x3fffffff))

(* Rng repeats the splitmix64 finalizer to keep its state unboxed; the
   k-th draw must be the top 30 bits of [Seed.mix64 (seed + k * golden)]. *)
let prop_rng_mix64 =
  QCheck2.Test.make ~name:"Rng draws = top 30 bits of Seed.mix64 (200 cases)" ~count:200
    QCheck2.Gen.(pair int (int_range 1 0x3fffffff))
    (fun (seed, bound) ->
      let r = M.Rng.make seed in
      List.for_all
        (fun k ->
          let z = Int64.add (Int64.of_int seed) (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int k)) in
          let top30 = Int64.to_int (Int64.shift_right_logical (Scheduler.Seed.mix64 z) 34) in
          M.Rng.int r bound = top30 mod bound)
        (List.init 16 succ))

let rng_allocation () =
  let r = derived_stream () in
  let draws = 1_000_000 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to draws do
    acc := !acc + M.Rng.int r 100
  done;
  let per_draw = (Gc.minor_words () -. w0) /. float_of_int draws in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per draw < 0.01" per_draw)
    true (per_draw < 0.01)

(* {2 Sampled monitor} *)

let sample_clean () =
  let s = M.Sample.create ~s:8 ~window:64 in
  M.Sample.crash s 2;
  M.Sample.susp s ~observer:1 ~target:2 ~suspected:true;
  (* transient false suspicion, corrected *)
  M.Sample.susp s ~observer:1 ~target:3 ~suspected:true;
  M.Sample.susp s ~observer:1 ~target:3 ~suspected:false;
  let v, clauses = M.Sample.finalize s ~final_dead:(fun q -> q = 2) ~completeness:true in
  Alcotest.(check bool) ("verdict sat: " ^ Fmt.str "%a" Verdict.pp v) true (Verdict.is_sat v);
  Alcotest.(check int) "three clauses" 3 (List.length clauses)

let sample_self_suspicion_violates () =
  let s = M.Sample.create ~s:4 ~window:64 in
  (* no detector does this; the monitor must catch it if one did *)
  M.Sample.susp s ~observer:2 ~target:2 ~suspected:true;
  let v, _ = M.Sample.finalize s ~final_dead:(fun _ -> false) ~completeness:false in
  (* self-suspicions are filtered at the matrix boundary, so this must
     be clean — the matrix never records (o, o) *)
  Alcotest.(check bool) "self pair ignored" true (Verdict.is_sat v)

let sample_window_eviction () =
  let s = M.Sample.create ~s:4 ~window:16 in
  M.Sample.crash s 1;
  M.Sample.susp s ~observer:0 ~target:1 ~suspected:true;
  (* push enough noise to evict the crash and the suspicion *)
  for _ = 1 to 40 do
    M.Sample.susp s ~observer:2 ~target:3 ~suspected:true;
    M.Sample.susp s ~observer:2 ~target:3 ~suspected:false
  done;
  let v, _ = M.Sample.finalize s ~final_dead:(fun q -> q = 1) ~completeness:false in
  Alcotest.(check bool)
    ("evicted state folds into the base snapshot: " ^ Fmt.str "%a" Verdict.pp v)
    true (Verdict.is_sat v)

(* {2 Process universe and latency series} *)

let univ_join () =
  let u = M.Univ.create ~cap:5 ~n:3 in
  let counts () = (M.Univ.count u, M.Univ.live_count u) in
  Alcotest.(check (pair int int)) "initial members" (3, 3) (counts ());
  Alcotest.(check (option int)) "fresh id gets the next dense id" (Some 3)
    (M.Univ.join u ~ext:1_000_003);
  Alcotest.(check int) "external id kept" 1_000_003 (M.Univ.ext_id u 3);
  Alcotest.(check bool) "joiner is live" true (M.Univ.is_live u 3);
  Alcotest.(check (option int)) "duplicate joiner refused" None
    (M.Univ.join u ~ext:1_000_003);
  Alcotest.(check (option int)) "duplicate initial member refused" None
    (M.Univ.join u ~ext:1);
  Alcotest.(check (pair int int)) "refusals leave the counts" (4, 4) (counts ());
  M.Univ.set_status u 0 M.Univ.crashed;
  Alcotest.(check (pair int int)) "a crash lowers only live_count" (4, 3) (counts ());
  Alcotest.(check (option int)) "last slot" (Some 4) (M.Univ.join u ~ext:(-7));
  Alcotest.(check (option int)) "full universe refused" None (M.Univ.join u ~ext:99);
  Alcotest.(check (pair int int)) "full refusal leaves the counts" (5, 4) (counts ());
  Alcotest.(check (list int)) "external ids by dense id" [ 0; 1; 2; 1_000_003; -7 ]
    (List.init 5 (M.Univ.ext_id u))

let stats_percentiles () =
  let s = M.Stats.series () in
  Alcotest.(check (triple int int int)) "empty series" (0, 0, 0) (M.Stats.percentiles s);
  (* 1..100 pushed out of order, past the initial capacity *)
  for i = 0 to 99 do
    M.Stats.add s (1 + (i * 37 mod 100))
  done;
  Alcotest.(check int) "count" 100 (M.Stats.count s);
  Alcotest.(check (triple int int int)) "nearest rank on 1..100" (50, 95, 99)
    (M.Stats.percentiles s);
  let t = M.Stats.series () in
  List.iter (M.Stats.add t) [ 9; 1; 5 ];
  Alcotest.(check (triple int int int)) "three samples" (5, 5, 5) (M.Stats.percentiles t)

let suite =
  [ Alcotest.test_case "calendar: same-time FIFO" `Quick calendar_fifo;
    Alcotest.test_case "calendar: wheel horizon and heap" `Quick calendar_horizon;
    Alcotest.test_case "calendar: clamped immediate events" `Quick calendar_immediate;
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "differential: pinned corners" `Quick differential_pinned;
    Alcotest.test_case "engine: deterministic at fixed seed" `Quick engine_deterministic;
    Alcotest.test_case "engine: hb-pc detects churn (ring)" `Quick
      (engine_detects "hb-pc" (M.Topology.Ring 2));
    Alcotest.test_case "engine: vcube detects churn (hypercube)" `Quick
      (engine_detects "vcube" M.Topology.Hypercube);
    Alcotest.test_case "engine: churnless run is clean" `Quick engine_churnless;
    Alcotest.test_case "engine: joiners are interned and adopted" `Quick engine_join_interning;
    Alcotest.test_case "engine: golden churn summaries" `Quick engine_golden;
    Alcotest.test_case "engine: at most 2 minor words per event" `Quick engine_allocation;
    Alcotest.test_case "rng: golden derived stream" `Quick rng_golden;
    QCheck_alcotest.to_alcotest prop_rng_mix64;
    Alcotest.test_case "rng: draws do not allocate" `Quick rng_allocation;
    Alcotest.test_case "sample: crash + suspicion is Sat" `Quick sample_clean;
    Alcotest.test_case "sample: self pairs filtered" `Quick sample_self_suspicion_violates;
    Alcotest.test_case "sample: window eviction keeps exactness" `Quick sample_window_eviction;
    Alcotest.test_case "univ: join interns fresh ids, refuses the rest" `Quick univ_join;
    Alcotest.test_case "stats: nearest-rank percentiles" `Quick stats_percentiles;
  ]
