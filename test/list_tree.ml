(* Reference tagged-tree builder for the differential tests: a private
   BFS with its own (config, pos) hash table, materialising every edge,
   ⊥ self-loops included.  This is the quotient graph — node ids, in
   discovery order, included — that [Tagged_tree.build] must reproduce
   as an exploration of the one BFS core. *)

open Afd_ioa
open Afd_core
open Afd_system
open Afd_tree.Tagged_tree

type node = {
  id : int;
  config : Act.t Composition.state;
  pos : int;
  edges : (label * Act.t option * int) array;
}

type t = {
  system : Act.t Composition.t;
  td : Act.fd_payload Fd_event.t array;
  nodes : node array;
}

(* Key table on (config, pos). *)
module Key = struct
  type t = Act.t Composition.state * int

  let equal (c1, p1) (c2, p2) = p1 = p2 && Composition.equal_state c1 c2
  let hash (c, p) = (Composition.hash_state c * 31) + p
end

module Key_tbl = Hashtbl.Make (Key)

let build ~system ~detector ~td ~max_nodes =
  let td = Array.of_list td in
  let task_labels = Composition.tasks system in
  let tbl = Key_tbl.create 1024 in
  let nodes = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern config pos =
    match Key_tbl.find_opt tbl (config, pos) with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Key_tbl.add tbl (config, pos) id;
      Queue.add (id, config, pos) queue;
      id
  in
  let root = intern (Composition.start system) 0 in
  assert (root = 0);
  let overflow = ref false in
  while (not (Queue.is_empty queue)) && not !overflow do
    let id, config, pos = Queue.pop queue in
    if !count > max_nodes then overflow := true
    else begin
      let edge_of_label label =
        let action =
          match label with
          | FD -> if pos < Array.length td then Some (act_of_fd_event td.(pos) ~detector) else None
          | Task tid -> Composition.enabled system config tid
        in
        match action with
        | None -> (label, None, id) (* bottom tag: self-loop in the quotient *)
        | Some act -> (
          match Composition.step system config act with
          | None ->
            (* An FD output directed at a component that cannot absorb
               it would be a modelling error; inputs are always
               enabled, so this is unreachable for well-formed systems. *)
            invalid_arg
              (Fmt.str "Tagged_tree.build: action %a not applicable" Act.pp act)
          | Some config' ->
            let pos' = match label with FD -> pos + 1 | Task _ -> pos in
            (label, Some act, intern config' pos'))
      in
      let edges =
        Array.of_list (edge_of_label FD :: List.map (fun tid -> edge_of_label (Task tid)) task_labels)
      in
      nodes := { id; config; pos; edges } :: !nodes
    end
  done;
  if !overflow then
    Error (Printf.sprintf "Tagged_tree.build: more than %d quotient nodes" max_nodes)
  else begin
    let arr = Array.make !count None in
    List.iter (fun n -> arr.(n.id) <- Some n) !nodes;
    let nodes =
      Array.map
        (function
          | Some n -> n
          | None -> invalid_arg "Tagged_tree.build: dangling node id")
        arr
    in
    Ok { system; td; nodes }
  end
