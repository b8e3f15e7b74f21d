open Afd_ioa
open Afd_system
open Afd_core

let detector_name = "Omega"

type st = {
  n : int;
  self : Loc.t;
  proposal : bool option;
  quorum : Loc.Set.t option;  (* latest Σ output here; None under majority quorums *)
  inst : bool Synod.t;
  decide_emitted : bool;
  outbox : Process.Outbox.t;
}

let init ~n ~self =
  { n;
    self;
    proposal = None;
    quorum = None;
    inst = Synod.init;
    decide_emitted = false;
    outbox = Process.Outbox.empty;
  }

(* The acknowledgement test: a majority, or, with the Σ detector
   [sigma], a cover of the quorum Σ last output here.  Any two quorums
   output by Σ anywhere, at any times, intersect — which is all the
   Paxos safety argument needs of its "majorities". *)
let covered ~sigma st responders =
  match (sigma, st.quorum) with
  | None, _ -> Loc.Set.cardinal responders >= (st.n / 2) + 1
  | Some _, Some q -> Loc.Set.subset q responders
  | Some _, None -> false

(* we only start a ballot with a proposal *)
let propose st = Option.value st.proposal ~default:false

let to_msg = function
  | Synod.Prepare bal -> Msg.Prepare { bal }
  | Synod.Promise (bal, accepted) -> Msg.Promise { bal; accepted }
  | Synod.Nack bal -> Msg.Nack { bal }
  | Synod.Accept (bal, v) -> Msg.Accept { bal; v }
  | Synod.Accepted (bal, v) -> Msg.Accepted { bal; v }

(* Queue the instance's emission; the copy addressed to ourselves is
   delivered synchronously (channels only connect distinct locations). *)
let rec emit ~sigma st ~src = function
  | None -> st
  | Some (Synod.Reply m) when Loc.equal src st.self -> receive ~sigma st ~src m
  | Some (Synod.Reply m) ->
    let send = Process.Send { dst = src; msg = to_msg m } in
    { st with outbox = Process.Outbox.push st.outbox send }
  | Some (Synod.Broadcast m) ->
    let outbox = Process.Outbox.broadcast st.outbox ~n:st.n ~self:st.self (to_msg m) in
    receive ~sigma { st with outbox } ~src:st.self m

and receive ~sigma st ~src m =
  let inst, out =
    Synod.receive ~quorum:(covered ~sigma st) ~propose:(propose st) ~src m st.inst
  in
  emit ~sigma { st with inst } ~src out

let handle ~sigma st = function
  | Process.Propose v ->
    if st.proposal = None then { st with proposal = Some v } else st
  | Process.Receive { src; msg } -> (
    match msg with
    | Msg.Prepare { bal } -> receive ~sigma st ~src (Synod.Prepare bal)
    | Msg.Promise { bal; accepted } ->
      receive ~sigma st ~src (Synod.Promise (bal, accepted))
    | Msg.Nack { bal } -> receive ~sigma st ~src (Synod.Nack bal)
    | Msg.Accept { bal; v } -> receive ~sigma st ~src (Synod.Accept (bal, v))
    | Msg.Accepted { bal; v } -> receive ~sigma st ~src (Synod.Accepted (bal, v))
    | Msg.Decided { v } when st.inst.Synod.chosen = None ->
      { st with inst = { st.inst with Synod.chosen = Some v } }
    | Msg.Decided _ | Msg.Flood _ | Msg.Ping _ | Msg.Fd_relay _ | Msg.Kprepare _
    | Msg.Kpromise _ | Msg.Knack _ | Msg.Kaccept _ | Msg.Kaccepted _ -> st)
  | Process.Fd { detector; payload = Act.Pleader l }
    when String.equal detector detector_name ->
    if
      Loc.equal l st.self && st.proposal <> None && st.inst.Synod.chosen = None
      && (sigma = None || st.quorum <> None)
      && Synod.stalled st.inst
    then
      let inst, out = Synod.start ~n:st.n ~self:st.self st.inst in
      emit ~sigma { st with inst } ~src:st.self (Some out)
    else st
  | Process.Fd { detector; payload = Act.Pset q } when sigma = Some detector ->
    (* a fresh quorum can complete a pending phase 1 or a decision *)
    let st = { st with quorum = Some q } in
    let inst, out =
      Synod.phase2 ~quorum:(covered ~sigma st) ~propose:(propose st) st.inst
    in
    let st = emit ~sigma { st with inst } ~src:st.self out in
    { st with inst = Synod.learn ~quorum:(covered ~sigma st) st.inst }
  | Process.Fd _ -> st

let output st =
  match Process.Outbox.peek st.outbox with
  | Some o -> Some o
  | None -> (
    match st.inst.Synod.chosen with
    | Some v when not st.decide_emitted -> Some (Process.Decide v)
    | Some _ | None -> None)

let after_output st = function
  | Process.Send _ -> { st with outbox = Process.Outbox.pop st.outbox }
  | Process.Decide _ -> { st with decide_emitted = true }
  | Process.Internal _ -> st

let def ~sigma ~n ~self =
  { Process.init = init ~n ~self; handle = handle ~sigma; output; after_output }

let process ~n ~loc =
  Process.automaton ~name:"synod" ~loc ~fd_names:[ detector_name ]
    (def ~sigma:None ~n ~self:loc)

let processes ~n =
  List.map (fun i -> Component.C (process ~n ~loc:i)) (Loc.universe ~n)

let net ~n ?values ~crashable () =
  let omega =
    Fd_bridge.lift_leader ~detector:detector_name (Afd_automata.fd_omega ~n)
  in
  let environment = Environment.of_values ~n values in
  Net.assemble ~n ~detectors:[ Component.C omega ] ~environment ~crashable
    ~processes:(processes ~n) ()
