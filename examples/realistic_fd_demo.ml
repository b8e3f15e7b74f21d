(* A failure detector you could actually deploy: adaptive heartbeats.

   The same detector automaton is run under three scheduling regimes,
   showing precisely when the eventually-perfect specification holds:

     fair scheduling (partial synchrony)  -> EvP satisfied
     one channel starved forever          -> stuck suspecting a live peer
     one channel delayed in long bursts   -> transient false suspicions,
                                             then the timeout adapts

     dune exec examples/realistic_fd_demo.exe
*)

open Afd_ioa
open Afd_core
open Afd_system

let n = 3

let fd_stream run = Act.fd_trace_set ~detector:Heartbeat.detector_name run

let describe label t =
  let false_suspicions =
    List.length
      (List.filter (function Fd_event.Output (0, s) -> Loc.Set.mem 1 s | _ -> false) t)
  in
  Format.printf "@.--- %s ---@." label;
  Format.printf "  outputs: %d;  p0 outputs suspecting (live) p1: %d@."
    (List.length t) false_suspicions;
  (match Fd_event.last_output_at 0 t with
  | Some s -> Format.printf "  p0's final suspicion set: %a@." Loc.pp_set s
  | None -> Format.printf "  p0 silent@.");
  Format.printf "  vs T_EvP: %a@." Verdict.pp (Afd.check Ev_perfect.spec ~n t)

let () =
  Format.printf "Adaptive-heartbeat detector, n = %d (initial timeout 2 ticks)@." n;

  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:(Loc.Set.singleton 2) () in
  let fair = Net.run net ~seed:5 ~crash_at:[ (60, 2) ] ~steps:1400 in
  describe "fair scheduling; p2 crashes at step 60" (fd_stream fair.Net.trace);

  let net = Heartbeat.net ~n ~initial_timeout:2 ~crashable:Loc.Set.empty () in
  let starved =
    Scheduler.run_custom net.Net.composition ~max_steps:1500
      ~choose:(Adversary.starve_channel ~seed:9 ~src:1 ~dst:0)
  in
  describe "adversary starves channel p1 -> p0 forever"
    (fd_stream (List.map snd starved.Scheduler.fired));

  let delayed =
    Scheduler.run_custom net.Net.composition ~max_steps:4000
      ~choose:(Adversary.delay_channel ~seed:9 ~src:1 ~dst:0 ~period:97)
  in
  describe "adversary delays channel p1 -> p0 in long bursts"
    (fd_stream (List.map snd delayed.Scheduler.fired));

  Format.printf
    "@.Moral: the heartbeat automaton implements EvP exactly on the schedules@.";
  Format.printf
    "that are partially synchronous - the substitutability the paper discusses@.";
  Format.printf "in Section 1.1 (failure detectors vs partial synchrony).@."
