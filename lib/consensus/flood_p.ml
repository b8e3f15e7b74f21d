open Afd_ioa
open Afd_system
open Afd_core

let detector_name = "P"

module Int_map = Map.Make (Int)

type st = {
  n : int;
  f : int;
  self : Loc.t;
  round : int;  (* 0 = waiting for proposal *)
  vals : Msg.vset;  (* monotone accumulated value set *)
  heard : Loc.Set.t Int_map.t;  (* senders heard from, per round *)
  suspects : Loc.Set.t;  (* latest P output *)
  outbox : Process.Outbox.t;
  decided : bool;
}

let round st = st.round
let value_set st = st.vals
let has_decided st = st.decided

let heard_in st r =
  match Int_map.find_opt r st.heard with None -> Loc.Set.empty | Some s -> s

let init ~n ~f ~self =
  { n;
    f;
    self;
    round = 0;
    vals = Msg.vset_empty;
    heard = Int_map.empty;
    suspects = Loc.Set.empty;
    outbox = Process.Outbox.empty;
    decided = false;
  }

let start_round st r =
  { st with
    round = r;
    outbox =
      Process.Outbox.broadcast st.outbox ~n:st.n ~self:st.self
        (Msg.Flood { round = r; vals = st.vals });
  }

let handle st = function
  | Process.Propose v ->
    (* Merge rather than overwrite: round-1 messages may have arrived
       before the local proposal, and their values must survive (an
       overwrite here loses agreement — caught by the exhaustive
       execution-tree experiment). *)
    if st.round = 0 then
      start_round { st with vals = Msg.vset_union st.vals (Msg.vset_of v) } 1
    else st
  | Process.Receive { src; msg = Msg.Flood { round = r; vals } } ->
    { st with
      vals = Msg.vset_union st.vals vals;
      heard = Int_map.add r (Loc.Set.add src (heard_in st r)) st.heard;
    }
  | Process.Receive _ -> st
  | Process.Fd { payload = Act.Pset s; _ } -> { st with suspects = s }
  | Process.Fd { payload = Act.Pleader _; _ } -> st

let can_advance st =
  st.round >= 1
  && (not st.decided)
  && Process.Outbox.is_empty st.outbox
  && List.for_all
       (fun j ->
         Loc.equal j st.self
         || Loc.Set.mem j (heard_in st st.round)
         || Loc.Set.mem j st.suspects)
       (Loc.universe ~n:st.n)

let output st =
  match Process.Outbox.peek st.outbox with
  | Some o -> Some o
  | None ->
    if not (can_advance st) then None
    else if st.round < st.f + 1 then Some (Process.Internal "advance")
    else (
      match Msg.vset_min st.vals with
      | Some v -> Some (Process.Decide v)
      | None -> None (* unreachable: round >= 1 implies a proposal *))

let after_output st = function
  | Process.Send _ -> { st with outbox = Process.Outbox.pop st.outbox }
  | Process.Internal _ -> start_round st (st.round + 1)
  | Process.Decide _ -> { st with decided = true }

let process ~n ~f ~loc =
  Process.automaton ~name:"flood" ~loc ~fd_names:[ detector_name ]
    { Process.init = init ~n ~f ~self:loc; handle; output; after_output }

let processes ~n ~f =
  List.map (fun i -> Component.C (process ~n ~f ~loc:i)) (Loc.universe ~n)

let net ~n ~f ?values ~crashable () =
  let detector =
    Fd_bridge.lift_set ~detector:detector_name (Afd_automata.fd_perfect ~n)
  in
  let environment = Environment.of_values ~n values in
  Net.assemble ~n
    ~detectors:[ Component.C detector ]
    ~environment ~crashable ~processes:(processes ~n ~f) ()
