(* Exploration-throughput rows for the experiment matrix.

   Each row explores a full net composition (the largest catalog
   subjects) twice with the hashed Space explorer — POR off and POR on
   — and reports the deterministic shape of the result: state count,
   edge counts, the POR edge-reduction factor and the completeness
   verdict.  The cell's [steps] is the number of transitions explored.
   Timing never appears in the rendered row: the verdict table stays
   byte-identical across domain counts.  The mc-catalog and mc-deep
   workloads of benchmark/main.exe time the same explorer. *)

open Afd_ioa
open Afd_system
module C = Afd_consensus
module R = Afd_runner
module A = Afd_analysis

let section = "MX  State-space exploration (hashed seen-set, sleep-set POR)"

let cap = 6_000

let explore ~por comp acts =
  let a = Composition.as_automaton comp in
  let p =
    A.Probe.make ~equal_action:Act.equal ~pp_action:Act.pp
      ~equal_state:Composition.equal_state ~hash_state:Composition.hash_state
      ~max_states:cap acts
  in
  A.Space.explore ~por a p

let entry ~id ~label mk_comp acts =
  R.Matrix.entry ~id ~section ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      let off = explore ~por:false (mk_comp ()) acts in
      let on = explore ~por:true (mk_comp ()) acts in
      let eo = Array.length off.A.Space.edges
      and en = Array.length on.A.Space.edges in
      let factor = if en = 0 then 1. else float_of_int eo /. float_of_int en in
      let detail =
        Printf.sprintf
          "states=%d verdict=%s edges=%d POR-edges=%d (%.2fx reduction, slept=%d)"
          (Array.length off.A.Space.states)
          (A.Space.verdict_string off.A.Space.verdict)
          eo en factor on.A.Space.stats.A.Space.slept
      in
      (* consistency, not timing: POR must reach the same states and
         never add edges *)
      let ok =
        Array.length off.A.Space.states = Array.length on.A.Space.states && en <= eo
      in
      R.Metrics.outcome
        ~steps:(off.A.Space.stats.A.Space.transitions + on.A.Space.stats.A.Space.transitions)
        ~detail
        (if ok then Afd_core.Verdict.Sat
         else Afd_core.Verdict.Violated "POR changed the reachable state set"))

let heartbeat_acts =
  [ Act.Crash 0;
    Act.Crash 2;
    Act.Send { src = 0; dst = 1; msg = Msg.Ping 0 };
    Act.Receive { src = 1; dst = 0; msg = Msg.Ping 0 };
    Act.Fd { at = 0; detector = Heartbeat.detector_name; payload = Act.Pset Loc.Set.empty };
  ]

let flood_acts =
  [ Act.Crash 0;
    Act.Crash 2;
    Act.Send { src = 0; dst = 1; msg = Msg.Flood { round = 1; vals = Msg.vset_of true } };
    Act.Receive { src = 0; dst = 1; msg = Msg.Flood { round = 1; vals = Msg.vset_of true } };
    Act.Fd { at = 1; detector = C.Flood_p.detector_name; payload = Act.Pset Loc.Set.empty };
    Act.Propose { at = 0; v = true };
    Act.Decide { at = 0; v = true };
  ]

let entries () =
  [ entry ~id:"MX.heartbeat" ~label:"heartbeat net, cap 6000"
      (fun () ->
        (Heartbeat.net ~n:3 ~initial_timeout:2 ~crashable:(Loc.Set.singleton 2) ()).Net.composition)
      heartbeat_acts;
    entry ~id:"MX.flood" ~label:"flood consensus net, cap 6000"
      (fun () ->
        (C.Flood_p.net ~n:3 ~f:1 ~crashable:(Loc.Set.singleton 2) ()).Net.composition)
      flood_acts;
  ]
