(* The message-passing heartbeat detector (realistic ◇P, ref [7]) and
   the adversarial schedulers: eventually-perfect under operational
   partial synchrony, broken under channel starvation. *)

open Afd_ioa
open Afd_core
open Afd_system

let hb_trace net run =
  Act.fd_trace_set ~detector:Heartbeat.detector_name
    (match run with
    | `Fair (seed, crash_at, steps) ->
      (Net.run net ~seed ~crash_at ~steps).Net.trace
    | `Custom (choose, steps) ->
      List.map snd
        (Scheduler.run_custom net.Net.composition ~max_steps:steps ~choose).Scheduler.fired)

let test_fair_no_crash () =
  let n = 3 in
  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:Loc.Set.empty () in
  List.iter
    (fun seed ->
      let t = hb_trace net (`Fair (seed, [], 900)) in
      match Afd.check Ev_perfect.spec ~n t with
      | Verdict.Sat -> ()
      | v -> Alcotest.failf "seed %d: %a" seed Verdict.pp v)
    [ 1; 2; 3; 4 ]

let test_fair_with_crash () =
  let n = 3 in
  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:(Loc.Set.singleton 2) () in
  List.iter
    (fun seed ->
      let t = hb_trace net (`Fair (seed, [ (60, 2) ], 1400)) in
      match Afd.check Ev_perfect.spec ~n t with
      | Verdict.Sat -> ()
      | v -> Alcotest.failf "seed %d: %a" seed Verdict.pp v)
    [ 5; 6; 7 ]

let test_starved_channel_breaks_evp () =
  let n = 3 in
  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:Loc.Set.empty () in
  let t = hb_trace net (`Custom (Adversary.starve_channel ~seed:9 ~src:1 ~dst:0, 1500)) in
  (* p0 must end up (wrongly, permanently) suspecting the live p1 *)
  (match Fd_event.last_output_at 0 t with
  | Some s -> Alcotest.(check bool) "p0 stuck suspecting p1" true (Loc.Set.mem 1 s)
  | None -> Alcotest.fail "p0 produced no output");
  match Afd.check Ev_perfect.spec ~n t with
  | Verdict.Sat -> Alcotest.fail "starvation must break eventual accuracy"
  | Verdict.Undecided _ -> ()
  | Verdict.Violated m -> Alcotest.failf "validity broken instead: %s" m

let test_delayed_channel_adapts () =
  let n = 3 in
  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:Loc.Set.empty () in
  let t = hb_trace net (`Custom (Adversary.delay_channel ~seed:9 ~src:1 ~dst:0 ~period:97, 4000)) in
  (* transient false suspicions are allowed; eventual accuracy must return *)
  let false_suspicions =
    List.length
      (List.filter
         (function Fd_event.Output (0, s) -> Loc.Set.mem 1 s | _ -> false)
         t)
  in
  Alcotest.(check bool) "some false suspicions occurred" true (false_suspicions > 0);
  match Afd.check Ev_perfect.spec ~n t with
  | Verdict.Sat -> ()
  | v -> Alcotest.failf "adaptive timeout failed to converge: %a" Verdict.pp v

let test_timeout_adaptation_monotone () =
  (* unit-level: a premature suspicion doubles the timeout *)
  let a = Heartbeat.automaton ~n:2 ~initial_timeout:1 ~loc:0 in
  let rec drive s k =
    if k = 0 then s
    else
      match List.filter_map (fun t -> t.Automaton.enabled s) a.Automaton.tasks with
      | [ act ] -> drive (Automaton.step_exn a s act) (k - 1)
      | _ -> s
  in
  (* run enough cycles without any heartbeat: p1 gets suspected *)
  let s = drive a.Automaton.start 8 in
  let st, _ = s in
  Alcotest.(check bool) "p1 suspected" true (Loc.Set.mem 1 (Heartbeat.suspects st));
  let before = Heartbeat.timeout_of st 1 in
  (* heartbeat arrives: suspicion withdrawn, timeout doubled *)
  let s = Automaton.step_exn a s (Act.Receive { src = 1; dst = 0; msg = Msg.Ping 0 }) in
  let st, _ = s in
  Alcotest.(check bool) "suspicion withdrawn" false (Loc.Set.mem 1 (Heartbeat.suspects st));
  Alcotest.(check int) "timeout doubled" (2 * before) (Heartbeat.timeout_of st 1)

let test_fair_random_baseline () =
  (* the Adversary.fair_random choose function behaves like a fair
     scheduler for the heartbeat system *)
  let n = 2 in
  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:Loc.Set.empty () in
  let t = hb_trace net (`Custom (Adversary.fair_random ~seed:4, 800)) in
  match Afd.check Ev_perfect.spec ~n t with
  | Verdict.Sat -> ()
  | v -> Alcotest.failf "%a" Verdict.pp v

let suite =
  [ Alcotest.test_case "fair scheduling, no crash: EvP holds" `Quick test_fair_no_crash;
    Alcotest.test_case "fair scheduling, one crash: EvP holds" `Quick test_fair_with_crash;
    Alcotest.test_case "starved channel: eventual accuracy lost" `Quick
      test_starved_channel_breaks_evp;
    Alcotest.test_case "delayed channel: adaptive timeout converges" `Quick
      test_delayed_channel_adapts;
    Alcotest.test_case "timeout adaptation doubles" `Quick test_timeout_adaptation_monotone;
    Alcotest.test_case "fair_random baseline" `Quick test_fair_random_baseline;
  ]
