open Afd_ioa

type verdict = Exhausted | Truncated of int

let verdict_string = function
  | Exhausted -> "exhausted"
  | Truncated cap -> Printf.sprintf "truncated@%d" cap

let pp_verdict ppf v = Fmt.string ppf (verdict_string v)

type 'a edge = { src : int; dst : int; act : 'a; task : string option }
type stats = { transitions : int; slept : int; cut : int; dup_seeds : int }

type ('s, 'a) t = {
  states : 's array;
  edges : 'a edge array;
  parent : (int * 'a) option array;
  depth : int array;
  verdict : verdict;
  por : bool;
  stats : stats;
}

(* Conditional independence at state [s], established by computing the
   diamond: both orders defined, each move leaves the other enabled
   with the same action, and the two compositions converge. *)
let commute aut probe s (tk_u, act_u) (tk_t, act_t) =
  match (aut.Automaton.step s act_t, aut.Automaton.step s act_u) with
  | Some s1, Some s2 -> (
    match (tk_u.Automaton.enabled s1, tk_t.Automaton.enabled s2) with
    | Some au', Some at'
      when probe.Probe.equal_action au' act_u && probe.Probe.equal_action at' act_t
      -> (
      match (aut.Automaton.step s1 au', aut.Automaton.step s2 at') with
      | Some s12, Some s21 -> probe.Probe.equal_state s12 s21
      | _ -> false)
    | _ -> false)
  | _ -> false

(* Orbit quotient as a wrapper: canonize the start state, the probe
   seeds, and every successor the moment it is produced.  The explorer
   below then sees only representatives, so its seen-set is the
   quotient for free — one wrapper shared by the sequential and
   parallel explorers.  Enabledness and edge actions are evaluated
   at representatives, which is sound exactly when the subject carries
   an equivariance certificate (see Symm / DESIGN.md). *)
let quotient canon aut probe =
  let open Automaton in
  let aut' =
    { aut with
      start = canon aut.start;
      step = (fun s a -> Option.map canon (aut.step s a));
    }
  in
  let probe' =
    { probe with Probe.seed_states = List.map canon probe.Probe.seed_states }
  in
  (aut', probe')

(* The seen-set is a bucket table keyed by [probe.hash_state]: a bucket
   holds the indices of all discovered states with that hash, scanned
   with the probe's (authoritative) state equality.  When no congruent
   hash is known the table degrades to a single bucket — exactly the
   old list scan, still exact. *)
let rec explore ?(por = false) ?symmetry aut probe =
  match symmetry with
  | Some canon ->
    let aut, probe = quotient canon aut probe in
    explore ~por aut probe
  | None -> explore_raw ~por aut probe

and explore_raw ~por aut probe =
  let max_states = probe.Probe.max_states in
  let hash = match probe.Probe.hash_state with Some h -> h | None -> fun _ -> 0 in
  let equal = probe.Probe.equal_state in
  (* Parallel growable arrays indexed by discovery order. *)
  let states = ref [||] and n = ref 0 in
  let parent = ref [||] and depth = ref [||] in
  let sleep = ref [||] and done_moves = ref [||] in
  let expanded = ref [||] and queued = ref [||] in
  let buckets : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let edges_rev = ref [] and transitions = ref 0 in
  let slept = ref 0 and cut = ref 0 and dup_seeds = ref 0 in
  let queue = Queue.create () in
  let ensure () =
    let cap = Array.length !states in
    if !n >= cap then begin
      let cap' = max 8 (2 * cap) in
      let grow a fill =
        let b = Array.make cap' fill in
        Array.blit !a 0 b 0 cap;
        a := b
      in
      grow states aut.Automaton.start;
      grow parent None;
      grow depth max_int;
      grow sleep [];
      grow done_moves [];
      grow expanded false;
      grow queued false
    end
  in
  let find_index s =
    let bucket = Option.value ~default:[] (Hashtbl.find_opt buckets (hash s)) in
    List.find_opt (fun i -> equal (!states).(i) s) bucket
  in
  let add_state s ~par ~d ~sl =
    ensure ();
    let i = !n in
    (!states).(i) <- s;
    (!parent).(i) <- par;
    (!depth).(i) <- d;
    (!sleep).(i) <- sl;
    (!queued).(i) <- true;
    incr n;
    let h = hash s in
    Hashtbl.replace buckets h (i :: Option.value ~default:[] (Hashtbl.find_opt buckets h));
    Queue.add i queue;
    i
  in
  let record_edge src dst act task =
    incr transitions;
    edges_rev := { src; dst; act; task } :: !edges_rev
  in
  (* Take the transition [act] from state [i]; [sl] is the sleep set the
     successor inherits (always [] with POR off). *)
  let take i act task sl =
    match aut.Automaton.step (!states).(i) act with
    | None -> ()
    | Some s' -> (
      match find_index s' with
      | Some j ->
        record_edge i j act task;
        if por then begin
          (* Re-reaching a state with a smaller sleep set re-opens the
             moves the earlier visit was allowed to skip: shrink to the
             intersection and re-expand, so sleeping prunes transitions
             but never states. *)
          let inter = List.filter (fun u -> List.mem u sl) (!sleep).(j) in
          if List.length inter < List.length (!sleep).(j) then begin
            (!sleep).(j) <- inter;
            if not (!queued).(j) then begin
              (!queued).(j) <- true;
              Queue.add j queue
            end
          end
        end
      | None ->
        if !n < max_states then begin
          let d = if (!depth).(i) = max_int then max_int else (!depth).(i) + 1 in
          let j = add_state s' ~par:(Some (i, act)) ~d ~sl in
          record_edge i j act task
        end
        else incr cut)
  in
  if max_states > 0 then
    ignore (add_state aut.Automaton.start ~par:None ~d:0 ~sl:[])
  else incr cut;
  List.iter
    (fun s ->
      match find_index s with
      | Some _ -> incr dup_seeds
      | None ->
        if !n < max_states then ignore (add_state s ~par:None ~d:max_int ~sl:[])
        else incr cut)
    probe.Probe.seed_states;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    (!queued).(i) <- false;
    let s = (!states).(i) in
    if not (!expanded).(i) then begin
      (* Probed (environment) actions are never reduced and are taken
         once, on the first expansion. *)
      (!expanded).(i) <- true;
      List.iter (fun act -> take i act None []) probe.Probe.actions
    end;
    let moves =
      List.filter_map
        (fun tk ->
          match tk.Automaton.enabled s with Some a -> Some (tk, a) | None -> None)
        aut.Automaton.tasks
    in
    List.iter
      (fun (tk, act) ->
        let name = tk.Automaton.task_name in
        if not (List.mem name (!done_moves).(i)) then begin
          if por && List.mem name (!sleep).(i) then incr slept
          else begin
            let sl' =
              if not por then []
              else
                (* Sleep' = { u ∈ Sleep ∪ Done : independent(u, move, s) } *)
                List.filter
                  (fun u ->
                    match
                      List.find_opt (fun (tk2, _) -> tk2.Automaton.task_name = u) moves
                    with
                    | Some mu -> commute aut probe s mu (tk, act)
                    | None -> false)
                  (List.sort_uniq Stdlib.compare ((!sleep).(i) @ (!done_moves).(i)))
            in
            (!done_moves).(i) <- name :: (!done_moves).(i);
            take i act (Some name) sl'
          end
        end)
      moves
  done;
  {
    states = Array.sub !states 0 !n;
    edges = Array.of_list (List.rev !edges_rev);
    parent = Array.sub !parent 0 !n;
    depth = Array.sub !depth 0 !n;
    verdict = (if !cut = 0 then Exhausted else Truncated max_states);
    por;
    stats = { transitions = !transitions; slept = !slept; cut = !cut; dup_seeds = !dup_seeds };
  }

let reachable t = Array.to_list t.states

let path_actions t i =
  if i < 0 || i >= Array.length t.states then
    invalid_arg "Space.path_actions: state index out of range";
  let rec walk i acc =
    match t.parent.(i) with
    | None ->
      if i = 0 then acc
      else invalid_arg "Space.path_actions: state not reached from the start state"
    | Some (j, act) -> walk j (act :: acc)
  in
  walk i []

let find t pred =
  let n = Array.length t.states in
  let rec go i = if i >= n then None else if pred t.states.(i) then Some i else go (i + 1) in
  go 0

let out_degree t =
  let deg = Array.make (Array.length t.states) 0 in
  Array.iter (fun e -> deg.(e.src) <- deg.(e.src) + 1) t.edges;
  deg

let agree ~equal_state ~equal_action a b =
  let arr eq x y = Array.length x = Array.length y && Array.for_all2 eq x y in
  let edge_eq e f =
    e.src = f.src && e.dst = f.dst && equal_action e.act f.act && e.task = f.task
  in
  let parent_eq p q =
    match (p, q) with
    | None, None -> true
    | Some (i, a), Some (j, b) -> i = j && equal_action a b
    | _ -> false
  in
  a.verdict = b.verdict && a.por = b.por && a.stats = b.stats
  && arr equal_state a.states b.states
  && arr edge_eq a.edges b.edges
  && arr parent_eq a.parent b.parent
  && arr ( = ) a.depth b.depth
