open Afd_ioa

type phase = Idle | Phase1 | Phase2

type 'v t = {
  ballot : int;
  phase : phase;
  promises : (Loc.t * (int * 'v) option) list;
  max_seen : int;
  promised : int;
  accepted : (int * 'v) option;
  learned : ((int * 'v) * Loc.Set.t) list;
  chosen : 'v option;
}

type 'v msg =
  | Prepare of int
  | Promise of int * (int * 'v) option
  | Nack of int
  | Accept of int * 'v
  | Accepted of int * 'v

type 'v out = Reply of 'v msg | Broadcast of 'v msg

let init =
  { ballot = -1;
    phase = Idle;
    promises = [];
    max_seen = -1;
    promised = -1;
    accepted = None;
    learned = [];
    chosen = None;
  }

let stalled t = t.phase = Idle || t.max_seen > t.ballot

let start ~n ~self t =
  (* smallest ballot congruent to [self] mod n strictly above max_seen
     (and above our own current ballot) *)
  let b = (((max t.max_seen t.ballot / n) + 1) * n) + self in
  ({ t with ballot = b; phase = Phase1; promises = [] }, Broadcast (Prepare b))

let phase2 ~quorum ~propose t =
  if t.phase = Phase1 && quorum (Loc.Set.of_list (List.map fst t.promises)) then
    (* the highest-ballot acceptance among the promises, the first of equals *)
    let bal = Option.fold ~none:min_int ~some:fst in
    let best =
      List.fold_left
        (fun best (_, acc) -> if bal acc > bal best then acc else best)
        None t.promises
    in
    let v = match best with Some (_, v) -> v | None -> propose in
    ({ t with phase = Phase2 }, Some (Broadcast (Accept (t.ballot, v))))
  else (t, None)

let learn ~quorum t =
  if t.chosen <> None then t
  else
    match List.find_opt (fun (_, voters) -> quorum voters) t.learned with
    | Some ((_, v), _) -> { t with chosen = Some v }
    | None -> t

let ballot_of = function
  | Prepare b | Promise (b, _) | Nack b | Accept (b, _) | Accepted (b, _) -> b

let receive ~quorum ~propose ~src msg t =
  let t = { t with max_seen = max t.max_seen (ballot_of msg) } in
  match msg with
  | Prepare b ->
    if b > t.promised then
      ({ t with promised = b }, Some (Reply (Promise (b, t.accepted))))
    else (t, Some (Reply (Nack b)))
  | Promise (b, acc) ->
    if t.phase = Phase1 && b = t.ballot then
      let t =
        if List.mem_assoc src t.promises then t
        else { t with promises = (src, acc) :: t.promises }
      in
      phase2 ~quorum ~propose t
    else (t, None)
  | Nack b ->
    if b = t.ballot && t.phase <> Idle then ({ t with phase = Idle }, None)
    else (t, None)
  | Accept (b, v) ->
    if b >= t.promised then
      ( { t with promised = b; accepted = Some (b, v) },
        Some (Broadcast (Accepted (b, v))) )
    else (t, Some (Reply (Nack b)))
  | Accepted (b, v) ->
    let key = (b, v) in
    let voters =
      match List.assoc_opt key t.learned with
      | None -> Loc.Set.singleton src
      | Some s -> Loc.Set.add src s
    in
    let learned = (key, voters) :: List.remove_assoc key t.learned in
    (learn ~quorum { t with learned }, None)
