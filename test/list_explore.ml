(* Reference explorer for the differential tests: BFS with a list
   seen-set, O(n) membership scan per push.  This is the semantics
   (visit order included) that [Space.explore ~por:false] and the
   parallel explorer must reproduce on every catalog subject. *)

open Afd_ioa
open Afd_analysis

let list_based aut probe =
  let seen = ref [] and count = ref 0 in
  let mem s = List.exists (probe.Probe.equal_state s) !seen in
  let queue = Queue.create () in
  let push s =
    if !count < probe.Probe.max_states && not (mem s) then begin
      seen := s :: !seen;
      incr count;
      Queue.add s queue
    end
  in
  push aut.Automaton.start;
  List.iter push probe.Probe.seed_states;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let step_all acts =
      List.iter
        (fun act ->
          match aut.Automaton.step s act with Some s' -> push s' | None -> ())
        acts
    in
    step_all probe.Probe.actions;
    step_all (Automaton.enabled_actions aut s)
  done;
  List.rev !seen

(* Reference sleep-set explorer: the search [Space.explore ~por:true]
   documents, written again over a FIFO of indices, list-valued sleep
   and done sets and a stdlib hash table, sharing no code with Space's
   core except the independence relation [Space.commute].  Probe
   actions are taken once per state and never slept; a task asleep at
   a state is skipped and counted; a state reached again with a
   smaller sleep set is requeued.  Returns the states in discovery
   order, the edges as (src, dst, task) in recording order, and the
   slept count.  Probe seed states are not explored. *)
type 's node = {
  s : 's;
  mutable sleep : string list;
  mutable done_ : string list;
  mutable expanded : bool;
  mutable queued : bool;
}

let list_por aut probe =
  let hash = Option.value ~default:(fun _ -> 0) probe.Probe.hash_state in
  let nodes = Hashtbl.create 64 and seen = Hashtbl.create 64 in
  let count = ref 0 and edges = ref [] and slept = ref 0 in
  let queue = Queue.create () in
  let find s =
    List.find_opt
      (fun i -> probe.Probe.equal_state (Hashtbl.find nodes i).s s)
      (Hashtbl.find_all seen (hash s))
  in
  let add s sleep =
    let i = !count in
    incr count;
    Hashtbl.add seen (hash s) i;
    Hashtbl.replace nodes i { s; sleep; done_ = []; expanded = false; queued = true };
    Queue.add i queue;
    i
  in
  let take i task s' sleep =
    match find s' with
    | Some j ->
      edges := (i, j, task) :: !edges;
      let nj = Hashtbl.find nodes j in
      let inter = List.filter (fun u -> List.mem u sleep) nj.sleep in
      if List.length inter < List.length nj.sleep then begin
        nj.sleep <- inter;
        if not nj.queued then begin
          nj.queued <- true;
          Queue.add j queue
        end
      end
    | None ->
      if !count < probe.Probe.max_states then edges := (i, add s' sleep, task) :: !edges
  in
  ignore (add aut.Automaton.start []);
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    let nd = Hashtbl.find nodes i in
    nd.queued <- false;
    if not nd.expanded then begin
      nd.expanded <- true;
      List.iter
        (fun act ->
          Option.iter (fun s' -> take i None s' []) (aut.Automaton.step nd.s act))
        probe.Probe.actions
    end;
    let moves =
      List.filter_map
        (fun tk -> Option.map (fun a -> (tk, a)) (tk.Automaton.enabled nd.s))
        aut.Automaton.tasks
    in
    List.iter
      (fun ((tk, a) as move) ->
        let name = tk.Automaton.task_name in
        if List.mem name nd.done_ then ()
        else if List.mem name nd.sleep then incr slept
        else begin
          let independent u =
            match List.find_opt (fun (tk', _) -> tk'.Automaton.task_name = u) moves with
            | Some m -> Space.commute aut probe nd.s m move
            | None -> false
          in
          let sleep =
            List.filter independent (List.sort_uniq compare (nd.sleep @ nd.done_))
          in
          nd.done_ <- name :: nd.done_;
          Option.iter (fun s' -> take i (Some name) s' sleep) (aut.Automaton.step nd.s a)
        end)
      moves
  done;
  (List.init !count (fun i -> (Hashtbl.find nodes i).s), List.rev !edges, !slept)
