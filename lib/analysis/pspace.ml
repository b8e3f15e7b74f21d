open Afd_ioa

(* Successor codes in a worker's packed expansion: a nonnegative code
   is the index of the successor in the frozen seen-set prefix, [blocked]
   and [fresh] are Space's codes.  The round's dedup rewrites each fresh
   code to [-3 - c], candidate [c] of the round. *)
let blocked = -1
let fresh = -2

(* One frontier state's expansion, computed in a worker.  Flat parallel
   arrays (codes and hashes unboxed) rather than per-move records, so a
   round's result is a handful of arrays per state, with every
   successor stepped and every [hash_state] call already paid in
   parallel.  The successor arrays hold the [x_np] probe actions first
   (none once the state is expanded), then the enabled moves.  [x_comm]
   is the k×k commute matrix of the enabled moves (row-major, byte per
   pair), empty with POR off: the core looks pairs up instead of
   computing diamonds sequentially.  [x_commit] is the moves' own,
   run by the core when it takes the expansion. *)
type ('s, 'a) packed = {
  x_names : string array;  (* enabled task moves, task-list order *)
  x_acts : 'a array;
  x_np : int;
  x_code : int array;
  x_dst : 's array;
  x_hash : int array;
  x_comm : Bytes.t;
  x_commit : unit -> unit;
}

(* Fresh candidates are deduped by hash stripe: stripe = hash land smask.
   Equality can only hold between equal hashes, hence within one
   stripe, so the stripes resolve their equality classes without
   interfering. *)
let nstripes = 8
let smask = nstripes - 1

let now () = Unix.gettimeofday ()

(* The parallel expansion producer for [Space.explore_with]: per round,
   workers expand the frontier against the frozen seen-set, the fresh
   candidates are deduped in parallel by stripe, and the core is handed
   expansions whose candidate codes resolve through the class table. *)
let expansions pool ~por ~t_workers ~t_dedup moves aut probe view =
  let hash = match probe.Probe.hash_state with Some h -> h | None -> fun _ -> 0 in
  let equal = probe.Probe.equal_state in
  let nprobe = List.length probe.Probe.actions in
  (* Worker: compute one frontier state's moves and resolve them
     against the frozen prefix.  No shared state is written, and
     workers only run inside a round's producer call, while the core
     waits; the pool's barrier publishes the core's writes before each
     parallel phase. *)
  let compute i =
    let s = view.Space.v_state i in
    let m = moves i s in
    let k = Array.length m.Space.m_names in
    let np = if view.Space.v_expanded i then 0 else nprobe in
    let x_code = Array.make (np + k) blocked in
    let x_dst = Array.make (np + k) s in
    let x_hash = Array.make (np + k) 0 in
    let resolve p = function
      | None -> ()
      | Some s' ->
        let h = hash s' in
        let j = view.Space.v_find s' h in
        x_code.(p) <- (if j >= 0 then j else fresh);
        x_dst.(p) <- s';
        x_hash.(p) <- h
    in
    for p = 0 to np - 1 do
      resolve p (m.Space.m_probe p)
    done;
    for t = 0 to k - 1 do
      resolve (np + t) (m.Space.m_step t)
    done;
    let x_comm =
      if not por then Bytes.empty
      else begin
        let b = Bytes.make (k * k) '\000' in
        for u = 0 to k - 1 do
          for t = 0 to k - 1 do
            if m.Space.m_commute u t then Bytes.set b ((u * k) + t) '\001'
          done
        done;
        b
      end
    in
    { x_names = m.Space.m_names; x_acts = m.Space.m_acts; x_np = np; x_code; x_dst;
      x_hash; x_comm; x_commit = m.Space.m_commit }
  in
  fun round ->
    let t0 = now () in
    let items = Afd_runner.Pool.map_pool pool compute round in
    let t1 = now () in
    t_workers := !t_workers +. (t1 -. t0);
    (* Striped dedup of the round's fresh candidates.  Number them in
       frontier order (rewriting each fresh code to [-3 - c] in place),
       shard by hash stripe, and resolve equality classes per stripe in
       parallel: class membership depends only on (hash, value), never
       on order, and equal values share a stripe.  [cls.(c)] is the
       first candidate of [c]'s class. *)
    let nc = ref 0 in
    Array.iter
      (fun it -> Array.iter (fun c -> if c = fresh then incr nc) it.x_code)
      items;
    let nc = !nc in
    let cand_dst = Array.make nc aut.Automaton.start in
    let cand_hash = Array.make nc 0 in
    let cls = Array.make nc 0 in
    if nc > 0 then begin
      let by_stripe = Array.make nstripes [] in
      let ci = ref 0 in
      Array.iter
        (fun it ->
          Array.iteri
            (fun p code ->
              if code = fresh then begin
                let c = !ci in
                incr ci;
                cand_dst.(c) <- it.x_dst.(p);
                cand_hash.(c) <- it.x_hash.(p);
                it.x_code.(p) <- -3 - c;
                let sp = it.x_hash.(p) land smask in
                by_stripe.(sp) <- c :: by_stripe.(sp)
              end)
            it.x_code)
        items;
      ignore
        (Afd_runner.Pool.map_pool pool
           (fun cands ->
             let reps : (int, int list) Hashtbl.t = Hashtbl.create 64 in
             List.iter
               (fun c ->
                 let h = cand_hash.(c) in
                 let rs = Option.value ~default:[] (Hashtbl.find_opt reps h) in
                 match List.find_opt (fun r -> equal cand_dst.(r) cand_dst.(c)) rs with
                 | Some r -> cls.(c) <- r
                 | None ->
                   cls.(c) <- c;
                   Hashtbl.replace reps h (c :: rs))
               (List.rev cands))
           by_stripe)
    end;
    t_dedup := !t_dedup +. (now () -. t1);
    (* [admitted.(r)] is the index the core gave class [r], or [-1]
       while no member has been admitted.  The first member the core
       takes is fresh and admits on behalf of the whole class, exactly
       where the sequential explorer would have inserted it; later
       members hit its index.  A cut member leaves the class fresh:
       the budget stays full, so its later members are cut too. *)
    let admitted = Array.make nc (-1) in
    let last = ref 0 in
    let resolve code =
      if code > -3 then code
      else begin
        let c = -3 - code in
        let j = admitted.(cls.(c)) in
        if j >= 0 then j
        else begin
          last := c;
          fresh
        end
      end
    in
    let x_admit add =
      let c = !last in
      let j = add cand_dst.(c) cand_hash.(c) in
      admitted.(cls.(c)) <- j;
      j
    in
    fun r ->
      let it = items.(r) in
      it.x_commit ();
      let k = Array.length it.x_names in
      { Space.x_probe = (fun p -> resolve it.x_code.(p));
        x_names = it.x_names;
        x_acts = it.x_acts;
        x_step = (fun t -> resolve it.x_code.(it.x_np + t));
        x_commute = (fun u t -> Bytes.get it.x_comm ((u * k) + t) = '\001');
        x_admit;
      }

let explore_with ~por ~jobs ~profile moves aut probe =
  if jobs <= 1 then Space.explore_with ~por (Space.sequential moves) aut probe
  else
    Afd_runner.Pool.with_pool ~jobs (fun pool ->
        let t_workers = ref 0.0 and t_dedup = ref 0.0 in
        let t0 = now () in
        let space =
          Space.explore_with ~por
            (expansions pool ~por ~t_workers ~t_dedup moves)
            aut probe
        in
        Option.iter
          (fun f ->
            f "workers" !t_workers;
            f "stripe_dedup" !t_dedup;
            (* everything else: the core's replay, seeding and result *)
            f "replay" (now () -. t0 -. !t_workers -. !t_dedup))
          profile;
        space)

let explore ?(por = false) ?(jobs = 1) ?profile aut probe =
  explore_with ~por ~jobs ~profile (Space.stepped aut probe) aut probe
