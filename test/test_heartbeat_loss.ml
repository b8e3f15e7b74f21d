(* The message-passing heartbeat detector under message loss: the
   adaptive timeout must absorb bounded (drop-every-k) channel loss
   the same way it absorbs bounded delay — transient false suspicions
   are fine, permanent ones are not, and a real crash must still be
   detected.  Everything is judged by the online Ev_perfect monitor
   (heartbeat predates lib/prop; this wires its behaviour through the
   monitor), never by ad-hoc trace scans. *)

open Afd_ioa
open Afd_core
open Afd_system

let hb_lossy_trace ~n ~drop_every ~seed ~crash_at ~steps =
  let net =
    Heartbeat.net
      ~channels:(Channel.lossy_pairs ~n ~drop_every)
      ~n ~initial_timeout:2
      ~crashable:(List.fold_left (fun s (_, i) -> Loc.Set.add i s) Loc.Set.empty crash_at)
      ()
  in
  Act.fd_trace_set ~detector:Heartbeat.detector_name
    (Net.run net ~seed ~crash_at ~steps).Net.trace

(* Stream a trace through the spec's online monitor. *)
let monitor_verdict ~n trace =
  let m = Afd.monitor Ev_perfect.spec ~n in
  List.iter (Afd_prop.Monitor.observe m) trace;
  Afd_prop.Monitor.verdict m

let test_loss_converges () =
  (* crash-free: every live pair keeps exchanging (1 - 1/k of the)
     heartbeats, so timeout adaptation must reach eventual accuracy *)
  let n = 3 in
  List.iter
    (fun (seed, drop_every) ->
      let t = hb_lossy_trace ~n ~drop_every ~seed ~crash_at:[] ~steps:2500 in
      match monitor_verdict ~n t with
      | Verdict.Sat -> ()
      | v ->
        Alcotest.failf "seed %d drop_every %d: %a" seed drop_every Verdict.pp v)
    [ (1, 2); (2, 3); (3, 5); (9, 2) ]

let test_loss_with_crash_detected () =
  (* a real crash under loss: convergence must still single out the
     faulty location — loss delays detection, it cannot mask it *)
  let n = 3 in
  List.iter
    (fun seed ->
      let t = hb_lossy_trace ~n ~drop_every:2 ~seed ~crash_at:[ (60, 2) ] ~steps:3000 in
      match monitor_verdict ~n t with
      | Verdict.Sat -> ()
      | v -> Alcotest.failf "seed %d: %a" seed Verdict.pp v)
    [ 4; 5; 6 ]

let test_recovery_after_false_suspicion () =
  (* under heavy loss the first timeouts fire prematurely; the monitor
     must see those false suspicions retracted (trust recovery), which
     is precisely what Sat-under-limit-extension certifies.  Also pin
     that suspicion did happen, so the run exercised recovery and not
     just quiet convergence. *)
  let n = 3 in
  let t = hb_lossy_trace ~n ~drop_every:2 ~seed:9 ~crash_at:[] ~steps:2500 in
  let some_false_suspicion =
    List.exists
      (function Fd_event.Output (_, s) -> not (Loc.Set.is_empty s) | _ -> false)
      t
  in
  Alcotest.(check bool) "some false suspicion occurred" true some_false_suspicion;
  match monitor_verdict ~n t with
  | Verdict.Sat -> ()
  | v -> Alcotest.failf "recovery failed: %a" Verdict.pp v

(* qcheck: across random seeds, drop periods and fault patterns, the
   monitor may be left Undecided by a short run but must never latch a
   violation — and doubling the budget must only move verdicts toward
   Sat (monotone recovery, the extension-run fallback). *)
let scenario_gen =
  QCheck2.Gen.(
    tup4 (int_bound 10_000) (map (fun k -> 2 + k) (int_bound 4))
      (int_bound 2 >|= function 0 -> [] | 1 -> [ (60, 2) ] | _ -> [ (40, 1); (80, 2) ])
      (map (fun s -> 1200 + (100 * s)) (int_bound 8)))

let prop_loss_never_violates =
  QCheck2.Test.make ~name:"lossy heartbeat: monitor never Violated; extension only helps"
    ~count:40 scenario_gen (fun (seed, drop_every, crash_at, steps) ->
      let n = 3 in
      let t = hb_lossy_trace ~n ~drop_every ~seed ~crash_at ~steps in
      let v = monitor_verdict ~n t in
      (not (Verdict.is_violated v))
      &&
      match v with
      | Verdict.Sat -> true
      | _ ->
        (* extension run: same scenario, double the budget *)
        let t2 = hb_lossy_trace ~n ~drop_every ~seed ~crash_at ~steps:(2 * steps) in
        not (Verdict.is_violated (monitor_verdict ~n t2)))

let suite =
  [ Alcotest.test_case "loss: adaptive timeout converges" `Quick test_loss_converges;
    Alcotest.test_case "loss: crash still detected" `Quick test_loss_with_crash_detected;
    Alcotest.test_case "loss: false suspicions retracted" `Quick
      test_recovery_after_false_suspicion;
    QCheck_alcotest.to_alcotest prop_loss_never_violates;
  ]
