open Afd_ioa
open Afd_core
open Afd_system
open Afd_analysis

type label = FD | Task of Composition.task_id

let pp_label fmt = function
  | FD -> Format.pp_print_string fmt "FD"
  | Task tid ->
    Format.fprintf fmt "%s/%s" tid.Composition.comp_name tid.Composition.task_name

type node = {
  id : int;
  config : Act.t Composition.state;
  pos : int;
  edges : (label * Act.t option * int) array;
}

type t = {
  system : Act.t Composition.t;
  td : Act.fd_payload Fd_event.t array;
  labels : label array;
  space : (Act.t Composition.state * int, int * Act.t) Space.t;
  offsets : int array;
}

let labels t = Array.to_list t.labels

let act_of_fd_event ev ~detector =
  match ev with
  | Fd_event.Crash i -> Act.Crash i
  | Fd_event.Output (i, payload) -> Act.Fd { at = i; detector; payload }

let decision_of_edge = function
  | Some (Act.Decide { v; _ }) -> Some v
  | Some _ | None -> None

(* The t_D player: the system paired with its position in t_D, one
   task per label.  A move's action carries its label's index in
   [labels] (FD is 0), so the view can file each core edge under its
   label.  FD is listed last: node ids are discovery order, and with FD
   last a node's task successors are numbered before its FD successor —
   the numbering the printed trees pin. *)
let player ~system ~detector ~td labels =
  let task k label =
    let enabled =
      match label with
      | FD ->
        fun (_, pos) ->
          if pos < Array.length td then Some (k, act_of_fd_event td.(pos) ~detector) else None
      | Task tid ->
        fun (config, _) -> Option.map (fun a -> (k, a)) (Composition.enabled system config tid)
    in
    { Automaton.task_name = Fmt.str "%a" pp_label label; fair = true; enabled }
  in
  let step (config, pos) (k, act) =
    match Composition.step system config act with
    | None ->
      (* An FD output directed at a component that cannot absorb it
         would be a modelling error; inputs are always enabled, so this
         is unreachable for well-formed systems.  Raising keeps the core
         from dropping the edge as blocked. *)
      invalid_arg (Fmt.str "Tagged_tree.build: action %a not applicable" Act.pp act)
    | Some config' -> Some (config', if k = 0 then pos + 1 else pos)
  in
  let tasks = Array.to_list (Array.mapi task labels) in
  { Automaton.name = "tagged-tree";
    kind = (fun _ -> Some Automaton.Internal);
    start = (Composition.start system, 0);
    step;
    tasks = List.tl tasks @ [ List.hd tasks ];
  }

let build ~system ~detector ~td ~max_nodes =
  let td = Array.of_list td in
  let labels = Array.of_list (FD :: List.map (fun tid -> Task tid) (Composition.tasks system)) in
  let probe =
    Probe.make
      ~equal_state:(fun (c1, p1) (c2, p2) -> p1 = p2 && Composition.equal_state c1 c2)
      ~hash_state:(fun (c, p) -> (Composition.hash_state c * 31) + p)
      ~max_states:max_nodes []
  in
  let space = Space.explore (player ~system ~detector ~td labels) probe in
  match space.Space.verdict with
  | Space.Truncated _ ->
    Error (Printf.sprintf "Tagged_tree.build: more than %d quotient nodes" max_nodes)
  | Space.Exhausted ->
    (* Each state is expanded once, in discovery order, so a node's
       edges are one contiguous run of the core's edge array. *)
    let n = Array.length space.Space.states in
    let offsets = Array.make (n + 1) 0 in
    Array.iter (fun { Space.src; _ } -> offsets.(src + 1) <- offsets.(src + 1) + 1) space.Space.edges;
    for i = 1 to n do
      offsets.(i) <- offsets.(i) + offsets.(i - 1)
    done;
    Ok { system; td; labels; space; offsets }

let size t = Array.length t.space.Space.states

let node t id =
  let config, pos = t.space.Space.states.(id) in
  (* ⊥ edges are implicit: a label with no core edge is disabled here,
     and its ⊥ tag loops to the node (Proposition 30). *)
  let edges = Array.map (fun l -> (l, None, id)) t.labels in
  for e = t.offsets.(id) to t.offsets.(id + 1) - 1 do
    let { Space.dst; act = k, act; _ } = t.space.Space.edges.(e) in
    edges.(k) <- (t.labels.(k), Some act, dst)
  done;
  { id; config; pos; edges }

let iter f t =
  for id = 0 to size t - 1 do
    f (node t id)
  done

let equal_upto t1 t2 ~depth =
  let memo = Hashtbl.create 256 in
  let rec go id1 id2 d =
    d = 0
    ||
    let key = (id1, id2, d) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      (* optimistic seed breaks cycles: equality is the greatest fixed
         point over the lockstep product graph *)
      Hashtbl.add memo key true;
      let n1 = node t1 id1 and n2 = node t2 id2 in
      let r =
        Composition.equal_state n1.config n2.config
        && Array.length n1.edges = Array.length n2.edges
        && Array.for_all2
             (fun (l1, a1, d1) (l2, a2, d2) ->
               l1 = l2
               && Option.equal Act.equal a1 a2
               && go d1 d2 (d - 1))
             n1.edges n2.edges
      in
      Hashtbl.replace memo key r;
      r
  in
  go 0 0 depth

let exe_of_walk t ids =
  let rec go acc = function
    | [] | [ _ ] -> List.rev acc
    | a :: (b :: _ as rest) ->
      let edge =
        Array.to_list (node t a).edges
        |> List.find_opt (fun (_, act, dst) -> dst = b && act <> None)
      in
      let acc = match edge with Some (_, Some act, _) -> act :: acc | _ -> acc in
      go acc rest
  in
  go [] ids
