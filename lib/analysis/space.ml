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

type ('s, 'a) moves = {
  m_tasks : int array;
  m_acts : 'a array;
  m_probe : int -> 's option;
  m_step : int -> 's option;
  m_commute : int -> int -> bool;
}

(* The plain moves: every successor is stepped when asked, so a move
   the core skips (done, slept) is never stepped. *)
let stepped aut probe =
  let probe_acts = Array.of_list probe.Probe.actions in
  let tasks = List.mapi (fun j tk -> (j, tk)) aut.Automaton.tasks in
  fun _ s ->
    let enabled =
      Array.of_list
        (List.filter_map
           (fun (j, tk) ->
             match tk.Automaton.enabled s with Some a -> Some (j, (tk, a)) | None -> None)
           tasks)
    in
    let acts = Array.map (fun (_, (_, a)) -> a) enabled in
    { m_tasks = Array.map fst enabled;
      m_acts = acts;
      m_probe = (fun p -> aut.Automaton.step s probe_acts.(p));
      m_step = (fun t -> aut.Automaton.step s acts.(t));
      m_commute = (fun u t -> commute aut probe s (snd enabled.(u)) (snd enabled.(t)));
    }

(* The seen-set is an open-addressed table of state indices (linear
   probing, at most half full), slotted by the top bits of the scrambled
   [probe.hash_state].  Each state's full hash is kept alongside it, so
   a probe calls the probe's (authoritative) state equality only on a
   full-hash match.  When no congruent hash is known every state hashes
   to 0 and a probe scans them all — the old list scan, still exact. *)
let slot bits h = (h * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

(* [count_only] is the count query's private mode: no edge is recorded,
   and the search stops at the first budget cut, where [Truncated] is
   already certain. *)
let core ~count_only ~por moves aut probe =
  let max_states = probe.Probe.max_states in
  let hash = match probe.Probe.hash_state with Some h -> h | None -> fun _ -> 0 in
  let equal = probe.Probe.equal_state in
  let probe_acts = Array.of_list probe.Probe.actions in
  (* One [Some name] per task, shared by every edge the task labels. *)
  let task_labels =
    Array.of_list (List.map (fun tk -> Some tk.Automaton.task_name) aut.Automaton.tasks)
  in
  (* Parallel growable arrays indexed by discovery order. *)
  let states = ref [||] and n = ref 0 in
  let parent = ref [||] and depth = ref [||] and hashes = ref [||] in
  let sleep = ref [||] and done_moves = ref [||] in
  let expanded = ref [||] and queued = ref [||] in
  let bits = ref 4 in
  let table = ref (Array.make (1 lsl !bits) (-1)) in
  let edges = ref [||] and transitions = ref 0 in
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
      grow hashes 0;
      grow sleep [];
      if por then grow done_moves [];
      grow expanded false;
      grow queued false
    end
  in
  (* The probe loop allocates nothing: no closure, no option. *)
  let find s h =
    let table = !table and hashes = !hashes and states = !states in
    let mask = Array.length table - 1 in
    let k = ref (slot !bits h) and res = ref (-2) in
    while !res = -2 do
      let j = table.(!k) in
      if j < 0 then res := -1
      else if hashes.(j) = h && equal states.(j) s then res := j
      else k := (!k + 1) land mask
    done;
    !res
  in
  let insert table i =
    let mask = Array.length table - 1 in
    let k = ref (slot !bits (!hashes).(i)) in
    while table.(!k) >= 0 do
      k := (!k + 1) land mask
    done;
    table.(!k) <- i
  in
  let add_state s h ~par ~d ~sl =
    ensure ();
    let i = !n in
    (!states).(i) <- s;
    (!parent).(i) <- par;
    (!depth).(i) <- d;
    (!hashes).(i) <- h;
    (!sleep).(i) <- sl;
    (!queued).(i) <- true;
    incr n;
    if 2 * !n > Array.length !table then begin
      incr bits;
      table := Array.make (1 lsl !bits) (-1);
      for j = 0 to i - 1 do
        insert !table j
      done
    end;
    insert !table i;
    Queue.add i queue;
    i
  in
  let record_edge src dst act task =
    if not count_only then begin
      let e = { src; dst; act; task } in
      let cap = Array.length !edges in
      if !transitions >= cap then begin
        let b = Array.make (max 8 (2 * cap)) e in
        Array.blit !edges 0 b 0 cap;
        edges := b
      end;
      (!edges).(!transitions) <- e;
      incr transitions
    end
  in
  let cut_one () =
    incr cut;
    if count_only then Queue.clear queue
  in
  (* Take the transition [act] from state [i] to the given successor
     ([None]: blocked); [sl] is the sleep set the successor inherits
     (always [] with POR off). *)
  let take i act task sl = function
    | None -> ()
    | Some s' ->
      let h = hash s' in
      let j = find s' h in
      if j >= 0 then begin
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
      end
      else if !n < max_states then begin
        let d = if (!depth).(i) = max_int then max_int else (!depth).(i) + 1 in
        let j = add_state s' h ~par:(Some (i, act)) ~d ~sl in
        record_edge i j act task
      end
      else cut_one ()
  in
  let seed s ~d =
    let h = hash s in
    if find s h >= 0 then incr dup_seeds
    else if !n < max_states then ignore (add_state s h ~par:None ~d ~sl:[])
    else cut_one ()
  in
  seed aut.Automaton.start ~d:0;
  List.iter (seed ~d:max_int) probe.Probe.seed_states;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    (!queued).(i) <- false;
    let m = moves i (!states).(i) in
    if not (!expanded).(i) then begin
      (* Probed (environment) actions are never reduced and are taken
         once, on the first expansion. *)
      (!expanded).(i) <- true;
      Array.iteri (fun p act -> take i act None [] (m.m_probe p)) probe_acts
    end;
    let tasks = m.m_tasks in
    let k = Array.length tasks in
    let index_of u =
      let rec go v = if v >= k then -1 else if tasks.(v) = u then v else go (v + 1) in
      go 0
    in
    (* The moves taken from [i].  With POR off a state is expanded
       exactly once, so they are kept for this expansion only; under
       POR a re-expansion reads the earlier ones back. *)
    let done_here = ref (if por then (!done_moves).(i) else []) in
    for t = 0 to k - 1 do
      let j = tasks.(t) in
      if not (List.mem j !done_here) then begin
        if por && List.mem j (!sleep).(i) then incr slept
        else begin
          let sl' =
            if not por then []
            else
              (* Sleep' = { u ∈ Sleep ∪ Done : independent(u, move, s) } *)
              List.filter
                (fun u ->
                  let v = index_of u in
                  v >= 0 && m.m_commute v t)
                (List.sort_uniq Int.compare ((!sleep).(i) @ !done_here))
          in
          done_here := j :: !done_here;
          take i m.m_acts.(t) task_labels.(j) sl' (m.m_step t)
        end
      end
    done;
    if por then (!done_moves).(i) <- !done_here
  done;
  {
    states = Array.sub !states 0 !n;
    edges = Array.sub !edges 0 !transitions;
    parent = Array.sub !parent 0 !n;
    depth = Array.sub !depth 0 !n;
    verdict = (if !cut = 0 then Exhausted else Truncated max_states);
    por;
    stats = { transitions = !transitions; slept = !slept; cut = !cut; dup_seeds = !dup_seeds };
  }

let explore_with ?(por = false) moves aut probe = core ~count_only:false ~por moves aut probe

let explore ?por aut probe = explore_with ?por (stepped aut probe) aut probe

let count aut probe =
  let t = core ~count_only:true ~por:false (stepped aut probe) aut probe in
  match t.verdict with Exhausted -> Some (Array.length t.states) | Truncated _ -> None

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
