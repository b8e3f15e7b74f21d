open Afd_ioa

let validity ~n t = Afd_prop.Monitor.replay ~n (Afd_prop.Prop.validity ()) t

let is_sampling ~of_:t t' =
  if not (Trace.is_subsequence ~equal:( = ) t' t) then false
  else
    let faulty = Fd_event.faulty t in
    let live_ok i =
      (* live in t: all outputs kept *)
      List.length (Fd_event.outputs_at i t') = List.length (Fd_event.outputs_at i t)
    in
    let faulty_ok i =
      (* first crash kept, outputs form a prefix *)
      let outs = Fd_event.outputs_at i t and outs' = Fd_event.outputs_at i t' in
      Fd_event.first_crash_index i t' <> None
      && Trace.is_prefix ~equal:( = ) outs' outs
    in
    let locs_in_t =
      List.fold_left (fun acc e -> Loc.Set.add (Fd_event.loc e) acc) Loc.Set.empty t
    in
    Loc.Set.for_all
      (fun i -> if Loc.Set.mem i faulty then faulty_ok i else live_ok i)
      locs_in_t

let gen_sampling rng t =
  let faulty = Fd_event.faulty t in
  (* For each faulty location pick how many of its outputs to keep. *)
  let keep_outputs =
    Loc.Set.fold
      (fun i acc ->
        let total = List.length (Fd_event.outputs_at i t) in
        Loc.Map.add i (Random.State.int rng (total + 1)) acc)
      faulty Loc.Map.empty
  in
  let seen_out = Hashtbl.create 8 in
  let seen_crash = Hashtbl.create 8 in
  List.filter
    (fun e ->
      match e with
      | Fd_event.Crash i ->
        let first = not (Hashtbl.mem seen_crash i) in
        Hashtbl.replace seen_crash i ();
        first || Random.State.bool rng
      | Fd_event.Output (i, _) ->
        if Loc.Set.mem i faulty then begin
          let k = try Hashtbl.find seen_out i with Not_found -> 0 in
          Hashtbl.replace seen_out i (k + 1);
          k < Loc.Map.find i keep_outputs
        end
        else true)
    t

(* --- constrained reordering --- *)

(* Index the events of a trace as (location, occurrence-within-location)
   pairs; a constrained reordering preserves every per-location
   subsequence exactly, so this keying lets us compare positions of
   "the same event occurrence" across the two traces even when payloads
   repeat. *)
let keyed t =
  let counters = Hashtbl.create 8 in
  List.map
    (fun e ->
      let i = Fd_event.loc e in
      let k = try Hashtbl.find counters i with Not_found -> 0 in
      Hashtbl.replace counters i (k + 1);
      ((i, k), e))
    t

let is_constrained_reordering ~of_:t t' =
  List.length t = List.length t'
  && (* per-location projections equal *)
  (let locs =
     List.fold_left (fun acc e -> Loc.Set.add (Fd_event.loc e) acc) Loc.Set.empty t
   in
   Loc.Set.for_all
     (fun i ->
       let at l = List.filter (fun e -> Loc.equal (Fd_event.loc e) i) l in
       List.equal ( = ) (at t) (at t'))
     locs)
  &&
  (* crash-before constraint: if e is a crash preceding e' in t, the
     same must hold in t'. *)
  let kt = keyed t and kt' = keyed t' in
  let pos' = Hashtbl.create 16 in
  List.iteri (fun idx (key, _) -> Hashtbl.replace pos' key idx) kt';
  let arr = Array.of_list kt in
  let ok = ref true in
  Array.iteri
    (fun x (kx, ex) ->
      if Fd_event.is_crash ex then
        for y = x + 1 to Array.length arr - 1 do
          let ky, _ = arr.(y) in
          match (Hashtbl.find_opt pos' kx, Hashtbl.find_opt pos' ky) with
          | Some px, Some py -> if px >= py then ok := false
          | _ -> ok := false
        done)
    arr;
  !ok

let gen_reordering rng t =
  (* Precedence x -> y (x must come before y, for x before y in t):
     same location, or x is a crash event.  That graph is exactly the
     per-location occurrence chains plus a barrier before every crash,
     so an event is emittable iff it heads its location's queue and no
     unemitted crash lies before it.  Sampling a random linear
     extension therefore needs no explicit edges: O(m * #locations)
     total instead of the O(m^2) indegree construction of the naive
     sampler.  The candidate pool is kept in the naive sampler's exact
     list order (ascending at start; removal order-preserving; newly
     unblocked events prepended in ascending position), so the RNG
     draw sequence — and hence the sampled reordering — is
     bit-identical to the list-based implementation. *)
  let arr = Array.of_list t in
  let m = Array.length arr in
  let locs = Array.map Fd_event.loc arr in
  (* Small dense ids for the distinct locations, first-appearance
     order; traces have a handful of locations. *)
  let loc_id = Array.make (max 1 m) 0 in
  let distinct = ref [] in
  let nloc = ref 0 in
  for x = 0 to m - 1 do
    match List.find_opt (fun (l, _) -> Loc.equal l locs.(x)) !distinct with
    | Some (_, id) -> loc_id.(x) <- id
    | None ->
      loc_id.(x) <- !nloc;
      distinct := (locs.(x), !nloc) :: !distinct;
      incr nloc
  done;
  let nloc = !nloc in
  (* Per-location queues of event positions, ascending. *)
  let qlen = Array.make (max 1 nloc) 0 in
  Array.iter (fun l -> qlen.(l) <- qlen.(l) + 1) (Array.sub loc_id 0 m);
  let queues = Array.init (max 1 nloc) (fun l -> Array.make (max 1 qlen.(l)) 0) in
  let fill = Array.make (max 1 nloc) 0 in
  for x = 0 to m - 1 do
    let l = loc_id.(x) in
    queues.(l).(fill.(l)) <- x;
    fill.(l) <- fill.(l) + 1
  done;
  let head = Array.make (max 1 nloc) 0 in
  (* Crash positions, ascending; unemitted crashes are necessarily
     emitted in position order, so a single cursor tracks the
     barrier: every unemitted event after it is blocked. *)
  let crash = Array.map Fd_event.is_crash arr in
  let ncrash = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 crash in
  let crashes = Array.make (max 1 ncrash) 0 in
  let ci = ref 0 in
  for x = 0 to m - 1 do
    if crash.(x) then begin
      crashes.(!ci) <- x;
      incr ci
    end
  done;
  let crash_cursor = ref 0 in
  let barrier () = if !crash_cursor < ncrash then crashes.(!crash_cursor) else max_int in
  (* Candidate pool: at most one event (its queue head) per location. *)
  let ready = Array.make (max 1 nloc) 0 in
  let len = ref 0 in
  let b0 = barrier () in
  for l = 0 to nloc - 1 do
    if qlen.(l) > 0 && queues.(l).(0) <= b0 then begin
      ready.(!len) <- queues.(l).(0);
      incr len
    end
  done;
  (* Initial heads were collected by location id (first-appearance
     order), but the naive pool is ascending by position. *)
  let sorted = Array.sub ready 0 !len in
  Array.sort compare sorted;
  Array.blit sorted 0 ready 0 !len;
  let fresh = Array.make (max 1 nloc) 0 in
  let out = ref [] in
  while !len > 0 do
    let i = Random.State.int rng !len in
    let pick = ready.(i) in
    (* Remove by shifting left: order-preserving, like List.filter. *)
    Array.blit ready (i + 1) ready i (!len - i - 1);
    decr len;
    out := arr.(pick) :: !out;
    let lpick = loc_id.(pick) in
    let b_old = barrier () in
    head.(lpick) <- head.(lpick) + 1;
    if crash.(pick) then incr crash_cursor;
    let b_new = barrier () in
    (* Newly unblocked events: the picked location's next head, and —
       when [pick] was the barrier crash — every other head now at or
       before the new barrier.  Collected ascending and prepended,
       matching the naive sampler's cons order. *)
    let c = ref 0 in
    for l = 0 to nloc - 1 do
      if head.(l) < qlen.(l) then begin
        let h = queues.(l).(head.(l)) in
        let was_ready = l <> lpick && h <= b_old in
        if (not was_ready) && h <= b_new then begin
          fresh.(!c) <- h;
          incr c
        end
      end
    done;
    if !c > 0 then begin
      let add = Array.sub fresh 0 !c in
      Array.sort compare add;
      Array.blit ready 0 ready !c !len;
      Array.blit add 0 ready 0 !c;
      len := !len + !c
    end
  done;
  List.rev !out

let count_reorderings_upto ~limit t =
  let arr = Array.of_list t in
  let m = Array.length arr in
  let must_precede x y =
    Loc.equal (Fd_event.loc arr.(x)) (Fd_event.loc arr.(y)) || Fd_event.is_crash arr.(x)
  in
  let count = ref 0 in
  let used = Array.make m false in
  let rec go placed =
    if !count >= limit then ()
    else if placed = m then incr count
    else
      for x = 0 to m - 1 do
        if (not used.(x)) && !count < limit then begin
          (* x is placeable iff every predecessor of x is already used *)
          let ok = ref true in
          for y = 0 to x - 1 do
            if (not used.(y)) && must_precede y x then ok := false
          done;
          if !ok then begin
            used.(x) <- true;
            go (placed + 1);
            used.(x) <- false
          end
        end
      done
  in
  go 0;
  !count
