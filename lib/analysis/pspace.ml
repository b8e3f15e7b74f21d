open Afd_ioa

(* Successor codes shipped from workers to the merge: a nonnegative
   code is the index of the successor in the frozen seen-set prefix. *)
let blocked = -1
let fresh_code = -2

(* One frontier state's expansion, computed in a worker.  Flat parallel
   arrays (codes and hashes unboxed) rather than per-move records, so a
   round's result is a handful of arrays per state, with every
   [hash_state] call already paid in parallel.  [x_comm] is the k×k
   commute matrix of the enabled moves (row-major, byte per pair),
   empty with POR off: the merge looks pairs up instead of computing
   diamonds sequentially. *)
type ('s, 'a) packed = {
  x_probe_code : int array;  (* per probe action; [||] once expanded *)
  x_probe_dst : 's array;
  x_probe_hash : int array;
  x_names : string array;  (* enabled task moves, task-list order *)
  x_acts : 'a array;
  x_code : int array;
  x_dst : 's array;
  x_hash : int array;
  x_comm : Bytes.t;
}

(* The seen-set is sharded by hash stripe: stripe = hash land smask.
   Equality can only hold between equal hashes, hence within one
   stripe, so per-stripe work never interferes across stripes — the
   invariant both the striped table and the parallel dedup below lean
   on. *)
let nstripes = 8
let smask = nstripes - 1

type merge_stats = {
  ms_rounds : int;
  ms_stripes : int;
  ms_candidates : int array; (* fresh successors deduped, per stripe *)
  ms_classes : int array; (* distinct new states among them, per stripe *)
  ms_conflicts : int array; (* hash-equal-but-unequal comparisons *)
}

(* Merge-side resolution state of a candidate class: unresolved until
   the first actually-taken member admits (id >= 0) or hits the budget
   cut. *)
let unresolved = -1
let cut_class = -2

let explore_pool ?(por = false) ?symmetry ?profile ?merge_stats pool aut probe =
  (* Orbit quotient: same wrapper as the sequential explorer, applied
     before any state crosses a domain boundary — workers only ever see
     representatives, so the sharded seen-set quotients for free. *)
  let aut, probe =
    match symmetry with
    | None -> (aut, probe)
    | Some canon -> Space.quotient canon aut probe
  in
  let max_states = probe.Probe.max_states in
  let hash = match probe.Probe.hash_state with Some h -> h | None -> fun _ -> 0 in
  let equal = probe.Probe.equal_state in
  let probe_acts = Array.of_list probe.Probe.actions in
  (* Mirror of Space.explore's growable bookkeeping, indexed by
     discovery order.  The merge below replays the sequential loop on
     these verbatim; only successor computation moved to the workers. *)
  let states = ref [||] and n = ref 0 in
  let parent = ref [||] and depth = ref [||] in
  let sleep = ref [||] and done_moves = ref [||] in
  let expanded = ref [||] and queued = ref [||] in
  let btab : (int, int list) Hashtbl.t array =
    Array.init nstripes (fun _ -> Hashtbl.create 64)
  in
  let edges_rev = ref [] and transitions = ref 0 in
  let slept = ref 0 and cut = ref 0 and dup_seeds = ref 0 in
  let queue = Queue.create () in
  let ms_rounds = ref 0 in
  let ms_candidates = Array.make nstripes 0 in
  let ms_classes = Array.make nstripes 0 in
  let ms_conflicts = Array.make nstripes 0 in
  let t_workers = ref 0.0 and t_dedup = ref 0.0 and t_replay = ref 0.0 in
  let now () = Unix.gettimeofday () in
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
    let h = hash s in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt btab.(h land smask) h) in
    List.find_opt (fun i -> equal (!states).(i) s) bucket
  in
  let add_state_h s h ~par ~d ~sl =
    ensure ();
    let i = !n in
    (!states).(i) <- s;
    (!parent).(i) <- par;
    (!depth).(i) <- d;
    (!sleep).(i) <- sl;
    (!queued).(i) <- true;
    incr n;
    let tbl = btab.(h land smask) in
    Hashtbl.replace tbl h (i :: Option.value ~default:[] (Hashtbl.find_opt tbl h));
    Queue.add i queue;
    i
  in
  let record_edge src dst act task =
    incr transitions;
    edges_rev := { Space.src; dst; act; task } :: !edges_rev
  in
  (* Per-round candidate classes, resolved by the striped dedup phase:
     [cls] maps a candidate (a worker-reported fresh successor, code
     [-3 - c]) to the representative of its equality class, [resolved]
     the class's merge outcome so far. *)
  let cls = ref [||] and resolved = ref [||] in
  let cand_dst = ref [||] and cand_hash = ref [||] in
  (* Space.explore's [take], with the step and hash already computed.
     A worker-reported hit ([code >= 0]) is a frozen-prefix index; a
     candidate code resolves through its class: the first taken member
     admits (or takes the budget cut) on behalf of the whole class,
     exactly as the first sequential insertion would, and later members
     hit (or re-cut) deterministically. *)
  let take i act task sl code =
    if code <> blocked then begin
      let old_hit j =
        record_edge i j act task;
        if por then begin
          let inter = List.filter (fun u -> List.mem u sl) (!sleep).(j) in
          if List.length inter < List.length (!sleep).(j) then begin
            (!sleep).(j) <- inter;
            if not (!queued).(j) then begin
              (!queued).(j) <- true;
              Queue.add j queue
            end
          end
        end
      in
      if code >= 0 then old_hit code
      else begin
        let c = -3 - code in
        let k = (!cls).(c) in
        let r = (!resolved).(k) in
        if r >= 0 then old_hit r
        else if r = cut_class then incr cut
        else if !n < max_states then begin
          let d = if (!depth).(i) = max_int then max_int else (!depth).(i) + 1 in
          let j =
            add_state_h (!cand_dst).(c) (!cand_hash).(c) ~par:(Some (i, act)) ~d
              ~sl
          in
          (!resolved).(k) <- j;
          record_edge i j act task
        end
        else begin
          incr cut;
          (!resolved).(k) <- cut_class
        end
      end
    end
  in
  (* Worker: expand one frontier state against the frozen prefix.  No
     shared state is written; the refs it reads are quiescent for the
     whole parallel phase, and the pool's barrier publishes the
     merge's writes before the next phase begins. *)
  let compute i =
    let sts = !states and exp = !expanded in
    let s = sts.(i) in
    let pack acts =
      let m = Array.length acts in
      let code = Array.make m blocked in
      let dst = Array.make m s in
      let hsh = Array.make m 0 in
      Array.iteri
        (fun p act ->
          match aut.Automaton.step s act with
          | None -> ()
          | Some s' ->
            let h = hash s' in
            let bucket =
              Option.value ~default:[] (Hashtbl.find_opt btab.(h land smask) h)
            in
            (match List.find_opt (fun j -> equal sts.(j) s') bucket with
            | Some j -> code.(p) <- j
            | None -> code.(p) <- fresh_code);
            dst.(p) <- s';
            hsh.(p) <- h)
        acts;
      (code, dst, hsh)
    in
    let x_probe_code, x_probe_dst, x_probe_hash =
      if exp.(i) then ([||], [||], [||]) else pack probe_acts
    in
    let moves =
      List.filter_map
        (fun tk ->
          match tk.Automaton.enabled s with Some a -> Some (tk, a) | None -> None)
        aut.Automaton.tasks
    in
    let k = List.length moves in
    let marr = Array.of_list moves in
    let x_names = Array.map (fun (tk, _) -> tk.Automaton.task_name) marr in
    let x_acts = Array.map snd marr in
    let x_code, x_dst, x_hash = pack x_acts in
    let x_comm =
      if not por then Bytes.empty
      else begin
        let b = Bytes.make (k * k) '\000' in
        for u = 0 to k - 1 do
          for t = 0 to k - 1 do
            if Space.commute aut probe s marr.(u) marr.(t) then
              Bytes.set b ((u * k) + t) '\001'
          done
        done;
        b
      end
    in
    { x_probe_code; x_probe_dst; x_probe_hash; x_names; x_acts; x_code; x_dst;
      x_hash; x_comm }
  in
  (* Sequential replay of Space.explore's pop body for one frontier
     state, consuming the worker's packed expansion. *)
  let merge i it =
    (!queued).(i) <- false;
    if not (!expanded).(i) then begin
      (!expanded).(i) <- true;
      Array.iteri (fun p act -> take i act None [] it.x_probe_code.(p)) probe_acts
    end;
    let k = Array.length it.x_names in
    for t = 0 to k - 1 do
      let name = it.x_names.(t) in
      if not (List.mem name (!done_moves).(i)) then begin
        if por && List.mem name (!sleep).(i) then incr slept
        else begin
          let sl' =
            if not por then []
            else begin
              let idx_of u =
                let rec go v = if v >= k then None else if it.x_names.(v) = u then Some v else go (v + 1) in
                go 0
              in
              List.filter
                (fun u ->
                  match idx_of u with
                  | Some ui -> Bytes.get it.x_comm ((ui * k) + t) = '\001'
                  | None -> false)
                (List.sort_uniq Stdlib.compare ((!sleep).(i) @ (!done_moves).(i)))
            end
          in
          (!done_moves).(i) <- name :: (!done_moves).(i);
          take i it.x_acts.(t) (Some name) sl' it.x_code.(t)
        end
      end
    done
  in
  if max_states > 0 then begin
    let s = aut.Automaton.start in
    ignore (add_state_h s (hash s) ~par:None ~d:0 ~sl:[])
  end
  else incr cut;
  List.iter
    (fun s ->
      match find_index s with
      | Some _ -> incr dup_seeds
      | None ->
        if !n < max_states then
          ignore (add_state_h s (hash s) ~par:None ~d:max_int ~sl:[])
        else incr cut)
    probe.Probe.seed_states;
  while not (Queue.is_empty queue) do
    incr ms_rounds;
    let m = Queue.length queue in
    let round = Array.init m (fun _ -> Queue.pop queue) in
    let t0 = now () in
    let items = Afd_runner.Pool.map_pool pool compute round in
    let t1 = now () in
    t_workers := !t_workers +. (t1 -. t0);
    (* Striped dedup of the round's fresh candidates.  Number them in
       merge order (rewriting each fresh code to [-3 - c] in place),
       shard by hash stripe, and resolve equality classes per stripe in
       parallel: class membership depends only on (hash, value), never
       on order, and equal values share a stripe, so the stripes are
       independent.  The replay then resolves each class at its first
       actually-taken member — exactly where the sequential merge would
       have inserted it. *)
    let ncand = ref 0 in
    let count arr = Array.iter (fun c -> if c = fresh_code then incr ncand) arr in
    Array.iter
      (fun it ->
        count it.x_probe_code;
        count it.x_code)
      items;
    let nc = !ncand in
    if nc > 0 then begin
      cand_dst := Array.make nc aut.Automaton.start;
      cand_hash := Array.make nc 0;
      cls := Array.make nc 0;
      resolved := Array.make nc unresolved;
      let by_stripe = Array.make nstripes [] in
      let ci = ref 0 in
      let assign code_arr dst_arr hash_arr =
        Array.iteri
          (fun p c ->
            if c = fresh_code then begin
              let idx = !ci in
              incr ci;
              (!cand_dst).(idx) <- dst_arr.(p);
              (!cand_hash).(idx) <- hash_arr.(p);
              code_arr.(p) <- -3 - idx;
              let sp = hash_arr.(p) land smask in
              by_stripe.(sp) <- idx :: by_stripe.(sp)
            end)
          code_arr
      in
      Array.iter
        (fun it ->
          assign it.x_probe_code it.x_probe_dst it.x_probe_hash;
          assign it.x_code it.x_dst it.x_hash)
        items;
      let stripe_of =
        Array.map (fun l -> Array.of_list (List.rev l)) by_stripe
      in
      let per_stripe =
        Afd_runner.Pool.map_pool pool
          (fun s ->
            let cd = !cand_dst and ch = !cand_hash and cl = !cls in
            let tbl : (int, int list) Hashtbl.t = Hashtbl.create 64 in
            let classes = ref 0 and conflicts = ref 0 in
            Array.iter
              (fun c ->
                let h = ch.(c) in
                let reps = Option.value ~default:[] (Hashtbl.find_opt tbl h) in
                let rec go = function
                  | [] -> -1
                  | r :: tl ->
                    if equal cd.(r) cd.(c) then r
                    else begin
                      incr conflicts;
                      go tl
                    end
                in
                let r = go reps in
                if r >= 0 then cl.(c) <- r
                else begin
                  cl.(c) <- c;
                  incr classes;
                  Hashtbl.replace tbl h (c :: reps)
                end)
              stripe_of.(s);
            (Array.length stripe_of.(s), !classes, !conflicts))
          (Array.init nstripes (fun s -> s))
      in
      Array.iteri
        (fun s (cands, classes, conflicts) ->
          ms_candidates.(s) <- ms_candidates.(s) + cands;
          ms_classes.(s) <- ms_classes.(s) + classes;
          ms_conflicts.(s) <- ms_conflicts.(s) + conflicts)
        per_stripe
    end;
    let t2 = now () in
    t_dedup := !t_dedup +. (t2 -. t1);
    Array.iteri (fun r i -> merge i items.(r)) round;
    t_replay := !t_replay +. (now () -. t2)
  done;
  (match profile with
  | None -> ()
  | Some f ->
    f "workers" !t_workers;
    f "stripe_dedup" !t_dedup;
    f "replay" !t_replay);
  (match merge_stats with
  | None -> ()
  | Some f ->
    f
      { ms_rounds = !ms_rounds;
        ms_stripes = nstripes;
        ms_candidates;
        ms_classes;
        ms_conflicts;
      });
  {
    Space.states = Array.sub !states 0 !n;
    edges = Array.of_list (List.rev !edges_rev);
    parent = Array.sub !parent 0 !n;
    depth = Array.sub !depth 0 !n;
    verdict = (if !cut = 0 then Space.Exhausted else Space.Truncated max_states);
    por;
    stats =
      { Space.transitions = !transitions; slept = !slept; cut = !cut;
        dup_seeds = !dup_seeds };
  }

let explore ?(por = false) ?symmetry ?(jobs = 1) ?profile ?merge_stats aut probe =
  if jobs <= 1 then Space.explore ~por ?symmetry aut probe
  else
    Afd_runner.Pool.with_pool ~jobs (fun pool ->
        explore_pool ~por ?symmetry ?profile ?merge_stats pool aut probe)
