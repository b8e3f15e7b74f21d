type task_id = {
  comp_idx : int;
  task_idx : int;
  comp_name : string;
  task_name : string;
  fair : bool;
}

type 'a t = {
  name : string;
  comps : 'a Component.t array;
  (* Memoized task structure: the flattened task array and, per
     component, the indices of its tasks in that array.  Both are pure
     functions of [comps]; computing them once keeps the scheduler's
     per-step work proportional to touched components only. *)
  mutable tasks_memo : task_id array option;
  mutable by_comp_memo : int array array option;
}

type 'a state = 'a Component.inst array

let make ~name comps =
  { name; comps = Array.of_list comps; tasks_memo = None; by_comp_memo = None }

let name c = c.name
let components c = c.comps
let start c = Array.map Component.init c.comps

let kind_of c act =
  let open Automaton in
  let out = ref false and inp = ref false and intr = ref false in
  Array.iter
    (fun comp ->
      match Component.kind_of comp act with
      | Some Output -> out := true
      | Some Input -> inp := true
      | Some Internal -> intr := true
      | None -> ())
    c.comps;
  if !out then Some Output
  else if !intr then Some Internal
  else if !inp then Some Input
  else None

let controllers c act =
  Array.to_list c.comps
  |> List.filteri (fun _ comp ->
         match Component.kind_of comp act with
         | Some Automaton.Output | Some Automaton.Internal -> true
         | Some Automaton.Input | None -> false)

let dual_controlled c ~probes =
  List.filter_map
    (fun act ->
      match controllers c act with
      | [] | [ _ ] -> None
      | owners -> Some (act, List.map Component.name owners))
    probes

let shared_internal c ~probes =
  List.filter_map
    (fun act ->
      let internal_owner = ref None and others = ref 0 in
      Array.iter
        (fun comp ->
          match Component.kind_of comp act with
          | Some Automaton.Internal ->
            if !internal_owner = None then internal_owner := Some (Component.name comp)
            else incr others
          | Some Automaton.Input | Some Automaton.Output -> incr others
          | None -> ())
        c.comps;
      match !internal_owner with
      | Some owner when !others > 0 -> Some (act, owner)
      | Some _ | None -> None)
    probes

let check_compatible c ~probes =
  match probes with
  | [] ->
    Error
      (Printf.sprintf "composition %s: empty probe set, compatibility was not checked"
         c.name)
  | _ -> (
    match dual_controlled c ~probes with
    | (_, owner :: _) :: _ ->
      Error
        (Printf.sprintf
           "composition %s: action controlled by multiple components (first: %s)"
           c.name owner)
    | _ -> (
      match shared_internal c ~probes with
      | (_, owner) :: _ ->
        Error
          (Printf.sprintf
             "composition %s: internal action of %s is in another component's signature"
             c.name owner)
      | [] -> Ok ()))

let step_touched _c st act =
  let n = Array.length st in
  let next = ref st in
  let touched = ref [] in
  let ok = ref true in
  for i = 0 to n - 1 do
    if !ok then
      let inst = st.(i) in
      match Component.step inst act with
      | Some inst' ->
        if inst' != inst then begin
          let nx = if !next == st then Array.copy st else !next in
          nx.(i) <- inst';
          next := nx;
          touched := i :: !touched
        end
      | None -> ok := false
  done;
  if !ok then Some (!next, List.rev !touched) else None

let step c st act = Option.map fst (step_touched c st act)

let tasks_array c =
  match c.tasks_memo with
  | Some a -> a
  | None ->
    let acc = ref [] in
    Array.iteri
      (fun ci comp ->
        List.iteri
          (fun ti (task_name, fair) ->
            acc :=
              { comp_idx = ci;
                task_idx = ti;
                comp_name = Component.name comp;
                task_name;
                fair;
              }
              :: !acc)
          (Component.task_names comp))
      c.comps;
    let a = Array.of_list (List.rev !acc) in
    c.tasks_memo <- Some a;
    a

let comp_task_indices c =
  match c.by_comp_memo with
  | Some m -> m
  | None ->
    let ts = tasks_array c in
    let counts = Array.make (Array.length c.comps) 0 in
    Array.iter (fun tid -> counts.(tid.comp_idx) <- counts.(tid.comp_idx) + 1) ts;
    let m = Array.map (fun n -> Array.make n 0) counts in
    let fill = Array.make (Array.length c.comps) 0 in
    Array.iteri
      (fun k tid ->
        m.(tid.comp_idx).(fill.(tid.comp_idx)) <- k;
        fill.(tid.comp_idx) <- fill.(tid.comp_idx) + 1)
      ts;
    c.by_comp_memo <- Some m;
    m

let tasks c = Array.to_list (tasks_array c)

let enabled _c st tid = Component.enabled_of_task st.(tid.comp_idx) tid.task_idx

let enabled_tasks c st =
  List.filter_map
    (fun tid -> Option.map (fun a -> (tid, a)) (enabled c st tid))
    (tasks c)

let quiescent c st =
  Array.for_all
    (fun tid -> (not tid.fair) || enabled c st tid = None)
    (tasks_array c)

let find_component c nm =
  let found = ref None in
  Array.iteri
    (fun i comp -> if Component.name comp = nm && !found = None then found := Some i)
    c.comps;
  !found

let state_inst st i = st.(i)

let equal_state s1 s2 =
  Array.length s1 = Array.length s2
  && Array.for_all2 (fun a b -> Component.equal_state a b) s1 s2

let hash_state st =
  Array.fold_left (fun acc inst -> (acc * 31) + Component.state_hash inst) 17 st

let task_full_name tid = Printf.sprintf "%s/%s" tid.comp_name tid.task_name

let as_automaton c =
  let tasks_list = tasks c in
  let task tid =
    { Automaton.task_name = task_full_name tid;
      fair = tid.fair;
      enabled = (fun st -> enabled c st tid);
    }
  in
  { Automaton.name = c.name;
    kind = kind_of c;
    start = start c;
    step = step c;
    tasks = List.map task tasks_list;
  }

(* Two automata composed into one whose state is the plain pair: the
   same semantics as [as_automaton] on a two-component composition
   (signature priority Output > Internal > Input, every in-signature
   component must accept, an out-of-signature one keeps its state,
   "<component>/<task>" task names), written out over a first-order
   state a process permutation can act on. *)
let pair ~name (a : ('s, 'x) Automaton.t) (b : ('t, 'x) Automaton.t) :
    ('s * 't, 'x) Automaton.t =
  let kind x =
    match (a.Automaton.kind x, b.Automaton.kind x) with
    | Some Automaton.Output, _ | _, Some Automaton.Output -> Some Automaton.Output
    | Some Automaton.Internal, _ | _, Some Automaton.Internal -> Some Automaton.Internal
    | Some Automaton.Input, _ | _, Some Automaton.Input -> Some Automaton.Input
    | None, None -> None
  in
  let part (m : (_, 'x) Automaton.t) st x =
    if m.Automaton.kind x = None then Some st else m.Automaton.step st x
  in
  let step (s, t) x =
    match (part a s x, part b t x) with
    | Some s', Some t' -> Some (s', t')
    | _ -> None
  in
  let lift (m : (_, 'x) Automaton.t) proj (tk : _ Automaton.task) =
    { Automaton.task_name = m.Automaton.name ^ "/" ^ tk.Automaton.task_name;
      fair = tk.Automaton.fair;
      enabled = (fun st -> tk.Automaton.enabled (proj st));
    }
  in
  { Automaton.name;
    kind;
    start = (a.Automaton.start, b.Automaton.start);
    step;
    tasks = List.map (lift a fst) a.Automaton.tasks @ List.map (lift b snd) b.Automaton.tasks;
  }

let hash_pair (s, t) = (((17 * 31) + Hashtbl.hash s) * 31) + Hashtbl.hash t
