(* Reference condensation for the differential tests: the list-based
   liveness analysis [Live] is checked against.  Successor lists are
   consed in edge order (so they hold reverse edge order), Tarjan runs
   over a [Stack] of (vertex, unvisited successors) frames, and every
   SCC record is built eagerly from per-task enabledness arrays over
   every state.  This is the semantics (SCC ids, member order,
   obligations) that [Live.analyze] must reproduce on every subject. *)

open Afd_ioa
open Afd_analysis

type t = {
  scc_of : int array;
  sccs : Live.scc array;
  fair_tasks : string list;
}

(* Tarjan, iterative: an explicit call stack of (vertex, unvisited
   successors) frames replaces the recursion. *)
let condense nstates adj =
  let index = Array.make nstates (-1) in
  let lowlink = Array.make nstates 0 in
  let on_stack = Array.make nstates false in
  let scc_of = Array.make nstates (-1) in
  let tarjan_stack = ref [] in
  let counter = ref 0 and scc_count = ref 0 in
  let call = Stack.create () in
  let push v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    tarjan_stack := v :: !tarjan_stack;
    on_stack.(v) <- true;
    Stack.push (v, ref adj.(v)) call
  in
  for root = 0 to nstates - 1 do
    if index.(root) < 0 then begin
      push root;
      while not (Stack.is_empty call) do
        let v, rest = Stack.top call in
        match !rest with
        | w :: tl ->
          rest := tl;
          if index.(w) < 0 then push w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        | [] ->
          ignore (Stack.pop call);
          (match Stack.top_opt call with
          | Some (u, _) -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
          | None -> ());
          if lowlink.(v) = index.(v) then begin
            let id = !scc_count in
            incr scc_count;
            let rec pop () =
              match !tarjan_stack with
              | w :: tl ->
                tarjan_stack := tl;
                on_stack.(w) <- false;
                scc_of.(w) <- id;
                if w <> v then pop ()
              | [] -> assert false
            in
            pop ()
          end
      done
    end
  done;
  (scc_of, !scc_count)

let analyze aut space =
  let nstates = Array.length space.Space.states in
  (* Successor lists over task-labelled edges only: probed environment
     actions are not under the scheduler's control, so they neither
     form autonomous cycles nor discharge fairness obligations. *)
  let adj = Array.make nstates [] in
  Array.iter
    (fun e ->
      match e.Space.task with
      | Some _ -> adj.(e.Space.src) <- e.Space.dst :: adj.(e.Space.src)
      | None -> ())
    space.Space.edges;
  let scc_of, scc_count = condense nstates adj in
  let members = Array.make scc_count [] in
  for i = nstates - 1 downto 0 do
    members.(scc_of.(i)) <- i :: members.(scc_of.(i))
  done;
  let internal_rev = Array.make scc_count [] in
  let has_exit = Array.make scc_count false in
  Array.iteri
    (fun ei e ->
      match e.Space.task with
      | None -> ()
      | Some _ ->
        let cs = scc_of.(e.Space.src) and cd = scc_of.(e.Space.dst) in
        if cs = cd then internal_rev.(cs) <- ei :: internal_rev.(cs)
        else has_exit.(cs) <- true)
    space.Space.edges;
  let fair = List.filter (fun tk -> tk.Automaton.fair) aut.Automaton.tasks in
  let fair_tasks = List.map (fun tk -> tk.Automaton.task_name) fair in
  (* Per fair task, enabledness on every stored state (the states are
     the exploration's, so this is exact, not sampled). *)
  let enabled =
    List.map
      (fun tk ->
        ( tk.Automaton.task_name,
          Array.map
            (fun s -> Option.is_some (tk.Automaton.enabled s))
            space.Space.states ))
      fair
  in
  let sccs =
    Array.init scc_count (fun c ->
        let internal = List.rev internal_rev.(c) in
        let fires =
          List.sort_uniq String.compare
            (List.filter_map (fun ei -> space.Space.edges.(ei).Space.task) internal)
        in
        let disabled_witness =
          List.filter_map
            (fun (name, en) ->
              Option.map
                (fun i -> (name, i))
                (List.find_opt (fun i -> not en.(i)) members.(c)))
            enabled
        in
        let unmet =
          List.filter
            (fun name ->
              (not (List.mem name fires))
              && not (List.mem_assoc name disabled_witness))
            fair_tasks
        in
        let fair_stops =
          List.filter
            (fun i -> List.for_all (fun (_, en) -> not en.(i)) enabled)
            members.(c)
        in
        { Live.id = c;
          members = members.(c);
          internal;
          terminal = not has_exit.(c);
          unmet;
          disabled_witness;
          fair_stops;
        })
  in
  { scc_of; sccs; fair_tasks }

let fair_cycle_through t i =
  let s = t.sccs.(t.scc_of.(i)) in
  s.Live.internal <> [] && s.Live.unmet = []

let fair_stop_at t i = List.mem i t.sccs.(t.scc_of.(i)).Live.fair_stops
