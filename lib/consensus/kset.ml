open Afd_ioa
open Afd_system
open Afd_core

let detector_name = "Psi"

module Int_map = Map.Make (Int)

type st = {
  n : int;
  k : int;
  self : Loc.t;
  leaders : Loc.t list;  (* latest Psi_k output, sorted ascending *)
  insts : Loc.t Synod.t Int_map.t;
  decided : Loc.t option;
  decide_emitted : bool;
  outbox : Process.Outbox.t;
}

let init ~n ~k ~self =
  { n;
    k;
    self;
    leaders = [];
    insts = Int_map.empty;
    decided = None;
    decide_emitted = false;
    outbox = Process.Outbox.empty;
  }

let inst_of st j = Option.value (Int_map.find_opt j st.insts) ~default:Synod.init

let majority st voters = Loc.Set.cardinal voters >= (st.n / 2) + 1

let to_msg inst = function
  | Synod.Prepare bal -> Msg.Kprepare { inst; bal }
  | Synod.Promise (bal, accepted) -> Msg.Kpromise { inst; bal; accepted }
  | Synod.Nack bal -> Msg.Knack { inst; bal }
  | Synod.Accept (bal, v) -> Msg.Kaccept { inst; bal; v }
  | Synod.Accepted (bal, v) -> Msg.Kaccepted { inst; bal; v }

(* Store instance [j] and the first value any instance chooses; queue
   the emission, delivering our own copy synchronously. *)
let rec emit st j ~src (is, out) =
  let decided = if st.decided = None then is.Synod.chosen else st.decided in
  let st = { st with insts = Int_map.add j is st.insts; decided } in
  match out with
  | None -> st
  | Some (Synod.Reply m) when Loc.equal src st.self -> receive st j ~src m
  | Some (Synod.Reply m) ->
    let send = Process.Send { dst = src; msg = to_msg j m } in
    { st with outbox = Process.Outbox.push st.outbox send }
  | Some (Synod.Broadcast m) ->
    let msg = to_msg j m in
    receive
      { st with outbox = Process.Outbox.broadcast st.outbox ~n:st.n ~self:st.self msg }
      j ~src:st.self m

and receive st j ~src m =
  let is = inst_of st j in
  emit st j ~src (Synod.receive ~quorum:(majority st) ~propose:st.self ~src m is)

(* On every Psi_k output: refresh the proposer roles; (re)start any
   instance this location now leads (the j-th smallest leader holds the
   proposer role of instance j) that is idle or preempted. *)
let on_leaders st set =
  let st = { st with leaders = Loc.Set.elements set } in
  if st.decided <> None then st
  else
    List.fold_left
      (fun st j ->
        if List.nth_opt st.leaders j = Some st.self && Synod.stalled (inst_of st j)
        then
          let is, out = Synod.start ~n:st.n ~self:st.self (inst_of st j) in
          emit st j ~src:st.self (is, Some out)
        else st)
      st
      (List.init st.k Fun.id)

let handle st = function
  | Process.Receive { src; msg } -> (
    match msg with
    | Msg.Kprepare { inst; bal } -> receive st inst ~src (Synod.Prepare bal)
    | Msg.Kpromise { inst; bal; accepted } ->
      receive st inst ~src (Synod.Promise (bal, accepted))
    | Msg.Knack { inst; bal } -> receive st inst ~src (Synod.Nack bal)
    | Msg.Kaccept { inst; bal; v } -> receive st inst ~src (Synod.Accept (bal, v))
    | Msg.Kaccepted { inst; bal; v } -> receive st inst ~src (Synod.Accepted (bal, v))
    | Msg.Flood _ | Msg.Prepare _ | Msg.Promise _ | Msg.Nack _ | Msg.Accept _
    | Msg.Accepted _ | Msg.Decided _ | Msg.Ping _ | Msg.Fd_relay _ -> st)
  | Process.Fd { detector; payload = Act.Pset set }
    when String.equal detector detector_name ->
    on_leaders st set
  | Process.Fd _ | Process.Propose _ -> st

let output st =
  match Process.Outbox.peek st.outbox with
  | Some o -> Some o
  | None -> (
    match st.decided with
    | Some _ when not st.decide_emitted -> Some (Process.Internal "decide_id")
    | Some _ | None -> None)

let after_output st = function
  | Process.Send _ -> { st with outbox = Process.Outbox.pop st.outbox }
  | Process.Internal _ -> { st with decide_emitted = true }
  | Process.Decide _ -> st

(* The Process glue has no location-valued decide, so the process is
   wrapped: its Internal "decide_id" step is renamed to the Decide_id
   action carrying the chosen value.  Renaming needs the value, which
   lives in the state, so we build the automaton directly. *)
let process ~n ~k ~loc =
  let inner =
    Process.automaton ~name:"kset" ~loc ~fd_names:[ detector_name ]
      { Process.init = init ~n ~k ~self:loc; handle; output; after_output }
  in
  let reveal act (st, _failed) =
    (* translate the internal decide step into the visible Decide_id *)
    match act with
    | Act.Step { at; tag = "decide_id" } when Loc.equal at loc -> (
      match st.decided with
      | Some v -> Act.Decide_id { at = loc; v }
      | None -> act)
    | other -> other
  in
  let hide_back = function
    | Act.Decide_id { at; _ } when Loc.equal at loc ->
      Act.Step { at = loc; tag = "decide_id" }
    | other -> other
  in
  let kind = function
    | Act.Decide_id { at; _ } when Loc.equal at loc -> Some Automaton.Output
    | Act.Step { at; tag = "decide_id" } when Loc.equal at loc -> None
    | other -> inner.Automaton.kind other
  in
  let step s act =
    match act with
    (* the internal decide step is renamed away: only its Decide_id
       alias is in the signature, so the raw action must be rejected *)
    | Act.Step { at; tag = "decide_id" } when Loc.equal at loc -> None
    | _ -> inner.Automaton.step s (hide_back act)
  in
  let task t =
    { t with
      Automaton.enabled =
        (fun s -> Option.map (fun a -> reveal a s) (t.Automaton.enabled s));
    }
  in
  { inner with Automaton.kind; step; tasks = List.map task inner.Automaton.tasks }

let processes ~n ~k =
  List.map (fun i -> Component.C (process ~n ~k ~loc:i)) (Loc.universe ~n)

let net ~n ~k ~crashable =
  let psi = Fd_bridge.lift_set ~detector:detector_name (Afd_automata.fd_psi_k ~n ~k) in
  Net.assemble ~n
    ~detectors:[ Component.C psi ]
    ~crashable ~processes:(processes ~n ~k) ()

(* --- monitors --- *)

let decisions t =
  List.filter_map (function Act.Decide_id { at; v } -> Some (at, v) | _ -> None) t

let k_agreement ~k t =
  let values =
    List.sort_uniq Loc.compare (List.map snd (decisions t))
  in
  if List.length values <= k then Verdict.Sat
  else
    Verdict.Violated
      (Printf.sprintf "%d distinct values decided, k = %d" (List.length values) k)

let validity ~n t =
  List.fold_left
    (fun acc (i, v) ->
      if v >= 0 && v < n then acc
      else
        Verdict.(
          acc
          &&& Violated
                (Printf.sprintf "%s decided %s, not a location ID" (Loc.to_string i)
                   (Loc.to_string v))))
    Verdict.Sat (decisions t)

let integrity t =
  let crashed = ref Loc.Set.empty in
  let seen = Hashtbl.create 8 in
  List.fold_left
    (fun acc a ->
      match a with
      | Act.Crash i ->
        crashed := Loc.Set.add i !crashed;
        acc
      | Act.Decide_id { at; _ } ->
        let dup =
          if Hashtbl.mem seen at then
            Verdict.Violated (Printf.sprintf "two decisions at %s" (Loc.to_string at))
          else Verdict.Sat
        in
        Hashtbl.replace seen at ();
        let after =
          if Loc.Set.mem at !crashed then
            Verdict.Violated
              (Printf.sprintf "decision at %s after its crash" (Loc.to_string at))
          else Verdict.Sat
        in
        Verdict.(acc &&& dup &&& after)
      | _ -> acc)
    Verdict.Sat t

let termination ~n t =
  let faulty =
    List.fold_left
      (fun acc a -> match a with Act.Crash i -> Loc.Set.add i acc | _ -> acc)
      Loc.Set.empty t
  in
  let decided =
    List.fold_left (fun acc (i, _) -> Loc.Set.add i acc) Loc.Set.empty (decisions t)
  in
  Loc.Set.fold
    (fun i acc ->
      if Loc.Set.mem i decided then acc
      else
        Verdict.(
          acc
          &&& Undecided (Printf.sprintf "live %s has not decided yet" (Loc.to_string i))))
    (Loc.Set.diff (Loc.set_of_universe ~n) faulty)
    Verdict.Sat

let check ~n ~k t =
  Verdict.(k_agreement ~k t &&& validity ~n t &&& integrity t &&& termination ~n t)
