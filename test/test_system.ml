(* The distributed-system substrate: channels, crash automaton,
   environment E_C (Theorem 44), detector bridge, net assembly (F1). *)

open Afd_ioa
open Afd_core
open Afd_system

(* --- channels --- *)

let test_channel_fifo () =
  let c = Channel.automaton ~src:0 ~dst:1 in
  let send k = Act.Send { src = 0; dst = 1; msg = Msg.Ping k } in
  let recv k = Act.Receive { src = 0; dst = 1; msg = Msg.Ping k } in
  let s = List.fold_left (fun s k -> Automaton.step_exn c s (send k)) c.Automaton.start [ 1; 2; 3 ] in
  Alcotest.(check bool) "head delivery enabled" true
    (List.exists (fun t -> t.Automaton.enabled s = Some (recv 1)) c.Automaton.tasks);
  Alcotest.(check bool) "out-of-order delivery disabled" true (c.Automaton.step s (recv 2) = None);
  let s = Automaton.step_exn c s (recv 1) in
  let s = Automaton.step_exn c s (recv 2) in
  let s = Automaton.step_exn c s (recv 3) in
  Alcotest.(check bool) "drained" true
    (List.for_all (fun t -> t.Automaton.enabled s = None) c.Automaton.tasks)

let test_channel_signature () =
  let c = Channel.automaton ~src:0 ~dst:1 in
  Alcotest.(check bool) "wrong direction not in signature" true
    (c.Automaton.kind (Act.Send { src = 1; dst = 0; msg = Msg.Ping 0 }) = None);
  Alcotest.check_raises "src=dst rejected" (Invalid_argument "Channel.automaton: src = dst")
    (fun () -> ignore (Channel.automaton ~src:1 ~dst:1));
  Alcotest.(check int) "n(n-1) channels" 6 (List.length (Channel.all_pairs ~n:3))

let test_queues_of_trace () =
  let t =
    [ Act.Send { src = 0; dst = 1; msg = Msg.Ping 1 };
      Act.Send { src = 0; dst = 1; msg = Msg.Ping 2 };
      Act.Receive { src = 0; dst = 1; msg = Msg.Ping 1 };
    ]
  in
  (match Channel.queues_of_trace t with
  | [ ((0, 1), [ Msg.Ping 2 ]) ] -> ()
  | _ -> Alcotest.fail "expected one message in transit");
  Alcotest.(check bool) "not empty" false (Channel.all_empty t);
  Alcotest.(check bool) "empty after drain" true
    (Channel.all_empty (t @ [ Act.Receive { src = 0; dst = 1; msg = Msg.Ping 2 } ]))

(* --- crash automaton --- *)

let test_crash_automaton () =
  let c = Crash.automaton ~n:3 ~crashable:(Loc.Set.of_list [ 0; 2 ]) in
  let enabled s =
    List.filter_map (fun t -> t.Automaton.enabled s) c.Automaton.tasks
  in
  Alcotest.(check int) "two crashes available" 2 (List.length (enabled c.Automaton.start));
  let s = Automaton.step_exn c c.Automaton.start (Act.Crash 0) in
  Alcotest.(check int) "one left" 1 (List.length (enabled s));
  Alcotest.(check bool) "no second crash of p0" true (c.Automaton.step s (Act.Crash 0) = None);
  Alcotest.(check bool) "crash tasks are unfair" true
    (List.for_all (fun t -> not t.Automaton.fair) c.Automaton.tasks)

(* --- environment E_C: Theorem 44 --- *)

let env_trace ~seed ~crash_at ~steps ~n =
  let comp =
    Composition.make ~name:"env-only"
      (Component.C (Crash.automaton ~n ~crashable:(Loc.set_of_universe ~n))
      :: Environment.consensus ~n)
  in
  let cfg =
    { Scheduler.policy = Scheduler.Random seed;
      max_steps = steps;
      stop_when_quiescent = false;
      forced = Crash.forces crash_at;
    }
  in
  List.map snd (Scheduler.run comp cfg).Scheduler.fired

let test_theorem44 () =
  (* E_C is a well-formed environment: all three claims on random fair
     traces with random fault patterns. *)
  List.iter
    (fun (seed, crash_at) ->
      let t = env_trace ~seed ~crash_at ~steps:60 ~n:3 in
      match Afd_consensus.Spec.environment_well_formedness ~n:3 t with
      | Verdict.Violated r -> Alcotest.failf "seed %d: %s" seed r
      | Verdict.Sat -> ()
      | Verdict.Undecided r ->
        (* acceptable only when a crash preempted a proposal *)
        if crash_at = [] then Alcotest.failf "seed %d undecided without crash: %s" seed r)
    [ (1, []); (2, [ (0, 1) ]); (3, [ (2, 0); (3, 2) ]); (4, [ (50, 2) ]) ]

let test_env_stop_after_propose () =
  let e = Environment.consensus_at 0 in
  let s = Automaton.step_exn e e.Automaton.start (Act.Propose { at = 0; v = true }) in
  Alcotest.(check bool) "no second proposal" true
    (List.for_all (fun t -> t.Automaton.enabled s = None) e.Automaton.tasks);
  Alcotest.(check bool) "propose disabled in step relation too" true
    (e.Automaton.step s (Act.Propose { at = 0; v = false }) = None)

let test_env_crash_disables () =
  let e = Environment.consensus_at 0 in
  let s = Automaton.step_exn e e.Automaton.start (Act.Crash 0) in
  Alcotest.(check bool) "crash disables proposals" true
    (List.for_all (fun t -> t.Automaton.enabled s = None) e.Automaton.tasks)

let test_scripted_env () =
  let e = Environment.scripted_at 0 ~value:true in
  match List.filter_map (fun t -> t.Automaton.enabled e.Automaton.start) e.Automaton.tasks with
  | [ Act.Propose { v = true; _ } ] -> ()
  | _ -> Alcotest.fail "scripted environment must offer exactly its value"

(* --- detector bridge --- *)

let test_fd_bridge_lift () =
  let a = Fd_bridge.lift_leader ~detector:"Omega" (Afd_automata.fd_omega ~n:2) in
  let s = a.Automaton.start in
  Alcotest.(check bool) "lifted output enabled" true
    (List.exists
       (fun t ->
         t.Automaton.enabled s = Some (Act.Fd { at = 0; detector = "Omega"; payload = Act.Pleader 0 }))
       a.Automaton.tasks);
  Alcotest.(check bool) "crash is input" true
    (a.Automaton.kind (Act.Crash 1) = Some Automaton.Input);
  let s = Automaton.step_exn a s (Act.Crash 0) in
  Alcotest.(check bool) "leader moves to p1 after crash" true
    (List.exists
       (fun t ->
         t.Automaton.enabled s = Some (Act.Fd { at = 1; detector = "Omega"; payload = Act.Pleader 1 }))
       a.Automaton.tasks)

let test_transformer_component () =
  let x =
    Fd_bridge.transformer ~src:"EvP" ~dst:"Omega" ~loc:0 ~f:(fun _ p ->
        match p with
        | Act.Pset s -> Act.Pleader (Option.value ~default:0 (Loc.min_not_in ~n:2 (fun j -> Loc.Set.mem j s)))
        | Act.Pleader l -> Act.Pleader l)
  in
  let s = x.Automaton.start in
  Alcotest.(check bool) "silent before first input" true
    (List.for_all (fun t -> t.Automaton.enabled s = None) x.Automaton.tasks);
  let s =
    Automaton.step_exn x s
      (Act.Fd { at = 0; detector = "EvP"; payload = Act.Pset (Loc.Set.singleton 0) })
  in
  Alcotest.(check bool) "transforms latest input" true
    (List.exists
       (fun t ->
         t.Automaton.enabled s = Some (Act.Fd { at = 0; detector = "Omega"; payload = Act.Pleader 1 }))
       x.Automaton.tasks)

(* --- F1: Figure 1 assembly --- *)

let test_figure1_assembly () =
  let n = 3 in
  let net = Afd_consensus.Flood_p.net ~n ~f:1 ~crashable:(Loc.Set.singleton 2) () in
  (* components: n processes + n(n-1) channels + crash + detector + n envs *)
  Alcotest.(check int) "component count" (3 + 6 + 1 + 1 + 3)
    (Array.length (Composition.components net.Net.composition));
  (* sampled signature compatibility *)
  let probes =
    [ Act.Crash 0;
      Act.Send { src = 0; dst = 1; msg = Msg.Ping 0 };
      Act.Receive { src = 0; dst = 1; msg = Msg.Ping 0 };
      Act.Fd { at = 1; detector = "P"; payload = Act.Pset Loc.Set.empty };
      Act.Propose { at = 2; v = true };
      Act.Decide { at = 0; v = false };
      Act.Step { at = 1; tag = "advance" };
    ]
  in
  match Composition.check_compatible net.Net.composition ~probes with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_process_input_enabledness () =
  (* Section 2.1: every input action must be enabled in every state.
     Probe the flooding process automaton across reachable states. *)
  let a = Afd_consensus.Flood_p.process ~n:2 ~f:1 ~loc:0 in
  let probes =
    [ Act.Crash 0;
      Act.Propose { at = 0; v = true };
      Act.Receive { src = 1; dst = 0; msg = Msg.Flood { round = 1; vals = Msg.vset_of true } };
      Act.Fd { at = 0; detector = "P"; payload = Act.Pset (Loc.Set.singleton 1) };
    ]
  in
  (* a few reachable states: start, after propose, after crash *)
  let s0 = a.Automaton.start in
  let s1 = Automaton.step_exn a s0 (Act.Propose { at = 0; v = false }) in
  let s2 = Automaton.step_exn a s1 (Act.Crash 0) in
  match Automaton.check_input_enabled a [ s0; s1; s2 ] probes with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_crash_disables_locally_controlled () =
  (* Section 4.2: crash_i permanently disables the process's locally
     controlled actions, for every process type in the repository. *)
  List.iter
    (fun (name, Component.C a) ->
      let propose = Act.Propose { at = 0; v = true } in
      let s =
        if Automaton.in_signature a propose then
          Automaton.step_exn a a.Automaton.start propose
        else a.Automaton.start
      in
      let s = Automaton.step_exn a s (Act.Crash 0) in
      Alcotest.(check bool) (name ^ ": silent after crash") true
        (Automaton.enabled_actions a s = []))
    [ ("flood", Component.C (Afd_consensus.Flood_p.process ~n:2 ~f:1 ~loc:0));
      ("synod", Component.C (Afd_consensus.Synod_omega.process ~n:2 ~loc:0));
      ("synod-sigma", Component.C (Afd_consensus.Synod_sigma.process ~n:2 ~loc:0));
      ("trb", Component.C (Afd_consensus.Trb.process ~n:2 ~sender:0 ~loc:0));
      ("kset", Component.C (Afd_consensus.Kset.process ~n:2 ~k:1 ~loc:0));
      ("heartbeat", Component.C (Heartbeat.automaton ~n:2 ~initial_timeout:2 ~loc:0));
    ]

let test_act_projections () =
  let t =
    [ Act.Crash 1;
      Act.Fd { at = 0; detector = "P"; payload = Act.Pset (Loc.Set.singleton 1) };
      Act.Fd { at = 0; detector = "X"; payload = Act.Pleader 0 };
      Act.Propose { at = 0; v = true };
    ]
  in
  (match Act.fd_trace_set ~detector:"P" t with
  | [ Fd_event.Crash 1; Fd_event.Output (0, s) ] ->
    Alcotest.(check bool) "suspicion payload" true (Loc.Set.equal s (Loc.Set.singleton 1))
  | _ -> Alcotest.fail "fd_trace_set wrong");
  (match Act.fd_trace_leader ~detector:"X" t with
  | [ Fd_event.Crash 1; Fd_event.Output (0, 0) ] -> ()
  | _ -> Alcotest.fail "fd_trace_leader wrong");
  Alcotest.(check int) "consensus externals" 2
    (List.length (List.filter Act.consensus_external t))

let suite =
  [ Alcotest.test_case "channel FIFO" `Quick test_channel_fifo;
    Alcotest.test_case "channel signature" `Quick test_channel_signature;
    Alcotest.test_case "queues reconstruction" `Quick test_queues_of_trace;
    Alcotest.test_case "crash automaton" `Quick test_crash_automaton;
    Alcotest.test_case "theorem 44: E_C well-formed" `Quick test_theorem44;
    Alcotest.test_case "E_C stops after propose" `Quick test_env_stop_after_propose;
    Alcotest.test_case "E_C crash disables proposals" `Quick test_env_crash_disables;
    Alcotest.test_case "scripted environment" `Quick test_scripted_env;
    Alcotest.test_case "fd bridge lifts automata" `Quick test_fd_bridge_lift;
    Alcotest.test_case "transformer component" `Quick test_transformer_component;
    Alcotest.test_case "figure 1 assembly" `Quick test_figure1_assembly;
    Alcotest.test_case "input-enabledness of processes" `Quick test_process_input_enabledness;
    Alcotest.test_case "crash disables locally controlled actions" `Quick test_crash_disables_locally_controlled;
    Alcotest.test_case "act projections" `Quick test_act_projections;
  ]
