open Afd_ioa
open Afd_system
open Afd_analysis

type comp_kind =
  | CProcess of Loc.t
  | CChannel of Loc.t * Loc.t
  | CEnv of Loc.t
  | COther

type ctx = {
  tree : Tagged_tree.t;
  n : int;
  kinds : comp_kind array;  (* per component index *)
  crashed : Loc.Set.t array;  (* per position in t_D *)
  queues : ((Loc.t * Loc.t) * Msg.t list) list array;  (* per node *)
}

let parse_loc s =
  (* "p3" -> 3 *)
  if String.length s >= 2 && s.[0] = 'p' then int_of_string_opt (String.sub s 1 (String.length s - 1))
  else None

let classify name =
  match String.split_on_char '_' name with
  | [ "chan"; a; b ] -> (
    match (parse_loc a, parse_loc b) with
    | Some i, Some j -> CChannel (i, j)
    | _ -> COther)
  | [ ("envC" | "envS" | "queryenv"); a ] -> (
    match parse_loc a with Some i -> CEnv i | None -> COther)
  | [ _; a ] -> (
    match parse_loc a with Some i -> CProcess i | None -> COther)
  | _ -> COther

let make_ctx tree ~n =
  let comps = Composition.components tree.Tagged_tree.system in
  let kinds = Array.map (fun c -> classify (Component.name c)) comps in
  (* Tree systems hold no crash automaton, so FD edges are the only
     source of crashes: a node's crashed set is the crashes of
     t_D[0..pos). *)
  let td = tree.Tagged_tree.td in
  let crashed = Array.make (Array.length td + 1) Loc.Set.empty in
  Array.iteri
    (fun p ev -> crashed.(p + 1) <- Loc.Set.union crashed.(p) (Afd_core.Fd_event.faulty [ ev ]))
    td;
  (* Channel queues are a function of the config, so any path to a node
     rebuilds them: replay each node's BFS-parent edge, in discovery
     order, where a parent always precedes its child. *)
  let apply qs act =
    let update key f =
      (key, f (Option.value ~default:[] (List.assoc_opt key qs))) :: List.remove_assoc key qs
    in
    match act with
    | Act.Send { src; dst; msg } -> update (src, dst) (fun q -> q @ [ msg ])
    | Act.Receive { src; dst; _ } -> update (src, dst) (function [] -> [] | _ :: rest -> rest)
    | _ -> qs
  in
  let parent = tree.Tagged_tree.space.Space.parent in
  let queues = Array.make (Array.length parent) [] in
  Array.iteri
    (fun id -> function Some (p, (_, act)) -> queues.(id) <- apply queues.(p) act | None -> ())
    parent;
  { tree; n; kinds; crashed; queues }

let queue_of ctx id key =
  Option.value ~default:[] (List.assoc_opt key ctx.queues.(id))

let similar_mod ctx ~i id id' =
  let states = ctx.tree.Tagged_tree.space.Space.states in
  let config, pos = states.(id) and config', pos' = states.(id') in
  (* (1) crash_i occurred in both *)
  Loc.Set.mem i ctx.crashed.(pos)
  && Loc.Set.mem i ctx.crashed.(pos')
  && (* (6) same remaining FD sequence *)
  pos = pos'
  && (* (2)(3)(5): componentwise equality away from i *)
  (let ok = ref true in
   Array.iteri
     (fun k kind ->
       if !ok then
         let eq () =
           Component.equal_state
             (Composition.state_inst config k)
             (Composition.state_inst config' k)
         in
         match kind with
         | CProcess j when not (Loc.equal j i) -> if not (eq ()) then ok := false
         | CEnv j when not (Loc.equal j i) -> if not (eq ()) then ok := false
         | CChannel (j, k') when (not (Loc.equal j i)) && not (Loc.equal k' i) ->
           if not (eq ()) then ok := false
         | CProcess _ | CEnv _ | CChannel _ | COther -> ())
     ctx.kinds;
   !ok)
  && (* (4): each channel out of i holds a prefix in N of N' *)
  List.for_all
    (fun j ->
      Loc.equal j i
      ||
      let qa = queue_of ctx id (i, j) and qb = queue_of ctx id' (i, j) in
      Afd_ioa.Trace.is_prefix ~equal:Msg.equal qa qb)
    (Loc.universe ~n:ctx.n)

let child_by_label tree id label =
  let node = Tagged_tree.node tree id in
  Array.to_list node.Tagged_tree.edges
  |> List.find_map (fun (l, _, dst) -> if l = label then Some dst else None)

let check_lemma39 ctx ~i id id' =
  if not (similar_mod ctx ~i id id') then Error "pair is not similar-modulo-i"
  else
    let labels = Tagged_tree.labels ctx.tree in
    let rec go = function
      | [] -> Ok ()
      | l :: rest -> (
        match (child_by_label ctx.tree id l, child_by_label ctx.tree id' l) with
        | Some nl, Some nl' ->
          if similar_mod ctx ~i nl id' || similar_mod ctx ~i nl nl' then go rest
          else
            Error
              (Fmt.str "label %a: neither N^l ~ N' nor N^l ~ N'^l" Tagged_tree.pp_label l)
        | _ -> Error "missing child")
    in
    go labels

let candidate_pairs ctx ~i ~limit =
  let pairs = ref [] and count = ref 0 and first = ref None in
  Tagged_tree.iter
    (fun node ->
      let id = node.Tagged_tree.id in
      if Loc.Set.mem i ctx.crashed.(node.Tagged_tree.pos) then begin
        if !first = None then first := Some id;
        Array.iter
          (fun (label, act, dst) ->
            if !count < limit then
              match (label, act) with
              | Tagged_tree.Task _, Some (Act.Receive { dst = d; _ }) when Loc.equal d i ->
                pairs := (id, dst) :: !pairs;
                incr count
              | _ -> ())
          node.Tagged_tree.edges
      end)
    ctx.tree;
  (* one diagonal pair for reflexivity coverage *)
  Option.iter (fun id -> pairs := (id, id) :: !pairs) !first;
  List.rev !pairs
