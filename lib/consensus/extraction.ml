open Afd_ioa
open Afd_core
open Afd_system

type observation = Oproposed of bool | Odecided of bool

type candidate = Loc.t -> observation list -> Loc.Set.t option

let echo_decision _loc = function [] -> None | _ :: _ -> Some Loc.Set.empty

type result = {
  observations_equal : bool;
  verdict_a : Verdict.t;
  verdict_b : Verdict.t;
  refuted : bool;
}

let observations_of ~loc trace =
  List.filter_map
    (function
      | Act.Propose { at; v } when Loc.equal at loc -> Some (Oproposed v)
      | Act.Decide { at; v } when Loc.equal at loc -> Some (Odecided v)
      | _ -> None)
    trace

(* Build the grafted detector trace: one candidate output after each
   observation at its location, crash events passed through, and one
   final output per live location (the limit extension making the
   eventual clauses of the target spec checkable). *)
let graft ~n ~candidate trace =
  let hist = Hashtbl.create 8 in
  let events =
    List.filter_map
      (fun act ->
        match act with
        | Act.Crash i -> Some (Fd_event.Crash i)
        | Act.Propose { at; v } | Act.Decide { at; v } ->
          let obs =
            match act with
            | Act.Propose _ -> Oproposed v
            | _ -> Odecided v
          in
          let h = (try Hashtbl.find hist at with Not_found -> []) @ [ obs ] in
          Hashtbl.replace hist at h;
          Option.map (fun s -> Fd_event.Output (at, s)) (candidate at h)
        | Act.Send _ | Act.Receive _ | Act.Fd _ | Act.Step _ | Act.Query _ | Act.Resp _ | Act.Decide_id _ -> None)
      trace
  in
  let faulty = Fd_event.faulty events in
  let finals =
    List.filter_map
      (fun i ->
        if Loc.Set.mem i faulty then None
        else
          let h = try Hashtbl.find hist i with Not_found -> [] in
          Option.map (fun s -> Fd_event.Output (i, s)) (candidate i h))
      (Loc.universe ~n)
  in
  events @ finals

let quiescence_step trace =
  (* first index after which no Send/Receive/Decide occurs *)
  let last = ref 0 in
  List.iteri
    (fun k act ->
      match act with
      | Act.Send _ | Act.Receive _ | Act.Decide _ | Act.Propose _ -> last := k
      | Act.Crash _ | Act.Fd _ | Act.Step _ | Act.Query _ | Act.Resp _ | Act.Decide_id _ -> ())
    trace;
  !last + 1

let run ~n ~target ~candidate ~late_crash ~seed ~steps =
  let values = List.init n (fun i -> i mod 2 = 0) in
  let net_a = Flood_p.net ~n ~f:1 ~values ~crashable:Loc.Set.empty () in
  let run_a = Net.run net_a ~seed ~crash_at:[] ~steps in
  let q = quiescence_step run_a.Net.trace in
  let net_b = Flood_p.net ~n ~f:1 ~values ~crashable:(Loc.Set.singleton late_crash) () in
  let run_b = Net.run net_b ~seed ~crash_at:[ (q + 5, late_crash) ] ~steps in
  let observations_equal =
    List.for_all
      (fun i ->
        observations_of ~loc:i run_a.Net.trace = observations_of ~loc:i run_b.Net.trace)
      (Loc.universe ~n)
  in
  let grafted_a = graft ~n ~candidate run_a.Net.trace in
  let grafted_b = graft ~n ~candidate run_b.Net.trace in
  let verdict_a = Afd.check target ~n grafted_a in
  let verdict_b = Afd.check target ~n grafted_b in
  { observations_equal;
    verdict_a;
    verdict_b;
    refuted = not (Verdict.is_sat verdict_a && Verdict.is_sat verdict_b);
  }
