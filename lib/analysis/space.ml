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

type 's view = {
  v_state : int -> 's;
  v_find : 's -> int -> int;
  v_expanded : int -> bool;
}

type ('s, 'a) expansion = {
  x_probe : int -> int;
  x_names : string array;
  x_acts : 'a array;
  x_step : int -> int;
  x_commute : int -> int -> bool;
  x_admit : ('s -> int -> int) -> int;
}

type ('s, 'a) moves = {
  m_names : string array;
  m_acts : 'a array;
  m_probe : int -> 's option;
  m_step : int -> 's option;
  m_commute : int -> int -> bool;
  m_commit : unit -> unit;
}

(* The plain moves: every successor is stepped when asked, so a move
   the core skips (done, slept) is never stepped. *)
let stepped aut probe =
  let probe_acts = Array.of_list probe.Probe.actions in
  fun _ s ->
    let moves =
      Array.of_list
        (List.filter_map
           (fun tk ->
             match tk.Automaton.enabled s with Some a -> Some (tk, a) | None -> None)
           aut.Automaton.tasks)
    in
    let acts = Array.map snd moves in
    { m_names = Array.map (fun (tk, _) -> tk.Automaton.task_name) moves;
      m_acts = acts;
      m_probe = (fun p -> aut.Automaton.step s probe_acts.(p));
      m_step = (fun t -> aut.Automaton.step s acts.(t));
      m_commute = (fun u t -> commute aut probe s moves.(u) moves.(t));
      m_commit = ignore;
    }

(* The seen-set is an open-addressed table of state indices (linear
   probing, at most half full), slotted by the top bits of the scrambled
   [probe.hash_state].  Each state's full hash is kept alongside it, so
   a probe calls the probe's (authoritative) state equality only on a
   full-hash match.  When no congruent hash is known every state hashes
   to 0 and a probe scans them all — the old list scan, still exact.
   Only [add_state], on the core, grows the table: workers run [find]
   while the core waits. *)
let slot bits h = (h * 0x4F1BBCDCBFA53E0B) lsr (Sys.int_size - bits)

let explore_with ?(por = false) expansions aut probe =
  let max_states = probe.Probe.max_states in
  let hash = match probe.Probe.hash_state with Some h -> h | None -> fun _ -> 0 in
  let equal = probe.Probe.equal_state in
  let probe_acts = Array.of_list probe.Probe.actions in
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
    let e = { src; dst; act; task } in
    let cap = Array.length !edges in
    if !transitions >= cap then begin
      let b = Array.make (max 8 (2 * cap)) e in
      Array.blit !edges 0 b 0 cap;
      edges := b
    end;
    (!edges).(!transitions) <- e;
    incr transitions
  in
  (* Take the transition [act] from state [i], whose successor the
     expansion resolved to [code]; [sl] is the sleep set the successor
     inherits (always [] with POR off). *)
  let take x i act task sl code =
    if code >= 0 then begin
      let j = code in
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
    else if code = -2 then begin
      if !n < max_states then begin
        let d = if (!depth).(i) = max_int then max_int else (!depth).(i) + 1 in
        let j = x.x_admit (fun s h -> add_state s h ~par:(Some (i, act)) ~d ~sl) in
        record_edge i j act task
      end
      else incr cut
    end
  in
  let seed s ~d =
    let h = hash s in
    if find s h >= 0 then incr dup_seeds
    else if !n < max_states then ignore (add_state s h ~par:None ~d ~sl:[])
    else incr cut
  in
  seed aut.Automaton.start ~d:0;
  List.iter (seed ~d:max_int) probe.Probe.seed_states;
  let view =
    { v_state = (fun i -> (!states).(i));
      v_find = find;
      v_expanded = (fun i -> (!expanded).(i));
    }
  in
  let expansions = expansions aut probe view in
  while not (Queue.is_empty queue) do
    (* One round = the whole queue: FIFO order is the concatenation of
       rounds, and states requeued or admitted below join the next. *)
    let round = Array.init (Queue.length queue) (fun _ -> Queue.pop queue) in
    let get = expansions round in
    Array.iteri
      (fun r i ->
        let x = get r in
        (!queued).(i) <- false;
        if not (!expanded).(i) then begin
          (* Probed (environment) actions are never reduced and are
             taken once, on the first expansion. *)
          (!expanded).(i) <- true;
          Array.iteri (fun p act -> take x i act None [] (x.x_probe p)) probe_acts
        end;
        let names = x.x_names in
        let k = Array.length names in
        let index_of u =
          let rec go v = if v >= k then -1 else if names.(v) = u then v else go (v + 1) in
          go 0
        in
        (* The moves taken from [i].  With POR off a state is expanded
           exactly once, so they are kept for this expansion only; under
           POR a re-expansion reads the earlier ones back. *)
        let done_here = ref (if por then (!done_moves).(i) else []) in
        for t = 0 to k - 1 do
          let name = names.(t) in
          if not (List.mem name !done_here) then begin
            if por && List.mem name (!sleep).(i) then incr slept
            else begin
              let sl' =
                if not por then []
                else
                  (* Sleep' = { u ∈ Sleep ∪ Done : independent(u, move, s) } *)
                  List.filter
                    (fun u ->
                      let v = index_of u in
                      v >= 0 && x.x_commute v t)
                    (List.sort_uniq Stdlib.compare ((!sleep).(i) @ !done_here))
              in
              done_here := name :: !done_here;
              take x i x.x_acts.(t) (Some name) sl' (x.x_step t)
            end
          end
        done;
        if por then (!done_moves).(i) <- !done_here)
      round
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

(* The sequential expansion: each state's moves are asked for when the
   core processes it, against the live seen-set, and a fresh successor
   is parked until the core admits it. *)
let sequential moves aut probe view =
  let hash = match probe.Probe.hash_state with Some h -> h | None -> fun _ -> 0 in
  let parked = ref aut.Automaton.start and parked_h = ref 0 in
  let x_admit add = add !parked !parked_h in
  let code = function
    | None -> -1
    | Some s' ->
      let h = hash s' in
      let j = view.v_find s' h in
      if j >= 0 then j
      else begin
        parked := s';
        parked_h := h;
        -2
      end
  in
  fun round r ->
    let i = round.(r) in
    let m = moves i (view.v_state i) in
    m.m_commit ();
    { x_probe = (fun p -> code (m.m_probe p));
      x_names = m.m_names;
      x_acts = m.m_acts;
      x_step = (fun t -> code (m.m_step t));
      x_commute = m.m_commute;
      x_admit;
    }

let explore ?por aut probe = explore_with ?por (sequential (stepped aut probe)) aut probe

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
