(* Compiled exploration of compositions.

   Same BFS, same sleep-set reduction, same bookkeeping as
   [Space.explore] — but the hot loop runs over dense integer ids
   instead of boxed states, and the transition relation is
   defunctionalized into first-order step tables:

   - every component state is interned once ([Pack.interner], hash
     accelerated, exact equality authoritative), so a product state is
     a fixed-width packed key — one 32-bit little-endian id per
     component slot — deduplicated in O(1) by [Pack.keyset];
   - [Component.step] and [Component.enabled_of_task] are memoized per
     (component, state id, action id) / (component, state id, task),
     so after warmup a product transition is k table reads, a pack and
     one hash probe — no closure dispatch, no state traversal;
   - the POR commute diamond is computed on id tuples through the same
     tables.

   The result is decoded back to a boxed [Space.t] at the end and is
   structurally identical to [Space.explore] — same states in the same
   discovery order, same edges, parents, depths, verdict and stats —
   which [Space.agree] checks field for field in the differential
   tests.  The congruence argument is spelled out in DESIGN.md.

   Parallel mode ([jobs > 1]) is round-based like [Pspace]: workers
   expand frontier states read-only against the frozen tables and ship
   packed successor keys; the sequential merge replays the exact
   [Space] pop body on the packets, recomputing the rare expansions
   that touched a table miss. *)

open Afd_ioa

let now () = Unix.gettimeofday ()

(* --- the compiled machine: everything the core BFS needs, in ids ---

   States and actions are dense ids; [step]/[enabled] return codes:
   [-1] blocked/disabled, [-2] fresh successor parked inside the
   machine (admitted — appended as state id [n] — by [admit]), [>= 0]
   the id of an already-discovered state (or an action id for
   [enabled]). *)
type ('s, 'a) machine = {
  ntasks : int;
  task_names : string array;
  canon : int array; (* task -> first task index with the same name *)
  probe_ids : int array;
  start_s : 's;
  find_state : 's -> int;
  add_state : 's -> int;
  state_value : int -> 's;
  act_value : int -> 'a;
  enabled : int -> int -> int; (* state id, task -> act id / -1 *)
  step : int -> int -> int; (* state id, act id -> code *)
  admit : unit -> int;
  commute : int -> int -> int -> int -> int -> bool;
      (* state id, task u, act u, task t, act t *)
}

(* One frontier state's resolved expansion: the core consumes these,
   never calling the machine directly, so the sequential pass (lazy,
   computed in place) and the parallel merge (worker packets) share one
   pop body.  [x_step] takes the task index and its act id; a [-2]
   result parks the candidate for [x_admit]. *)
type expansion = {
  x_probe : int -> int;
  x_mact : int -> int;
  x_step : int -> int -> int;
  x_admit : unit -> int;
  x_commute : int -> int -> int -> int -> bool;
}

let direct m i =
  { x_probe = (fun p -> m.step i m.probe_ids.(p));
    x_mact = (fun t -> m.enabled i t);
    x_step = (fun _t a -> m.step i a);
    x_admit = m.admit;
    x_commute = (fun u au t at -> m.commute i u au t at);
  }

(* Bitsets over canonical task ids, 62 usable bits per word: done-move
   and sleep sets are flat int words at stride [nwords] per state,
   replacing Space's name-list membership scans. *)
let bits_per_word = 62

(* --- the core BFS, shared by the sequential and parallel passes ---

   A literal replay of [Space.explore]'s loop over ids: same seed
   handling, same probe-once-per-first-expansion, same move order, same
   sleep-set algebra, same budget cuts — so the decoded result is
   structurally identical.  Rounds drain the whole queue (frontier
   FIFO order is exactly the sequential queue order; [Pspace] relies on
   the same fact). *)
let run_core (type s a) ~por ~(probe : (s, a) Probe.t) ?profile
    (m : (s, a) machine)
    ~(expansions :
       round:int array -> expanded:(int -> bool) -> int -> int -> expansion) ()
    : (s, a) Space.t =
  let max_states = probe.Probe.max_states in
  let ntasks = m.ntasks in
  let nwords = max 1 ((ntasks + bits_per_word - 1) / bits_per_word) in
  let nprobe = Array.length m.probe_ids in
  let parent_s = Pack.ints () and parent_a = Pack.ints () in
  let depth = Pack.ints () in
  let flags = Pack.ints () in (* bit 0 queued, bit 1 expanded *)
  let done_w = Pack.ints () and sleep_w = Pack.ints () in
  let esrc = Pack.ints () and edst = Pack.ints () in
  let eact = Pack.ints () and etask = Pack.ints () in
  let slept = ref 0 and cut = ref 0 and dup_seeds = ref 0 in
  let n = ref 0 in
  let queue = Queue.create () in
  let zero = Array.make nwords 0 in
  let sl = Array.make nwords 0 in
  let move_act = Array.make (max 1 ntasks) (-1) in
  let first_en = Array.make (max 1 ntasks) (-1) in
  let queued i = Pack.ints_get flags i land 1 <> 0 in
  let set_queued i b =
    let f = Pack.ints_get flags i in
    Pack.ints_set flags i (if b then f lor 1 else f land lnot 1)
  in
  let expanded i = Pack.ints_get flags i land 2 <> 0 in
  let set_expanded i = Pack.ints_set flags i (Pack.ints_get flags i lor 2) in
  let test_bit a i b =
    Pack.ints_get a ((i * nwords) + (b / bits_per_word))
    land (1 lsl (b mod bits_per_word))
    <> 0
  in
  let set_bit a i b =
    let w = (i * nwords) + (b / bits_per_word) in
    Pack.ints_set a w (Pack.ints_get a w lor (1 lsl (b mod bits_per_word)))
  in
  let record_edge src dst act task =
    Pack.ints_push esrc src;
    Pack.ints_push edst dst;
    Pack.ints_push eact act;
    Pack.ints_push etask task
  in
  (* Admit the machine's parked (or given) state and mirror Space's
     [add_state] bookkeeping. *)
  let admit_state adm ~ps ~pa ~d ~sl_words =
    let j = adm () in
    Pack.ints_push parent_s ps;
    Pack.ints_push parent_a pa;
    Pack.ints_push depth d;
    Pack.ints_push flags 1;
    for w = 0 to nwords - 1 do
      Pack.ints_push done_w 0;
      Pack.ints_push sleep_w sl_words.(w)
    done;
    incr n;
    Queue.add j queue;
    j
  in
  (* Space.explore's [take] with the step already resolved to a code. *)
  let take i act_id task_idx code adm sl_words =
    if code <> -1 then begin
      if code >= 0 then begin
        let j = code in
        record_edge i j act_id task_idx;
        if por then begin
          let changed = ref false in
          for w = 0 to nwords - 1 do
            let old = Pack.ints_get sleep_w ((j * nwords) + w) in
            let inter = old land sl_words.(w) in
            if inter <> old then begin
              changed := true;
              Pack.ints_set sleep_w ((j * nwords) + w) inter
            end
          done;
          if !changed && not (queued j) then begin
            set_queued j true;
            Queue.add j queue
          end
        end
      end
      else if !n < max_states then begin
        let d_i = Pack.ints_get depth i in
        let d = if d_i = max_int then max_int else d_i + 1 in
        let j = admit_state adm ~ps:i ~pa:act_id ~d ~sl_words in
        record_edge i j act_id task_idx
      end
      else incr cut
    end
  in
  if max_states > 0 then
    ignore
      (admit_state (fun () -> m.add_state m.start_s) ~ps:(-1) ~pa:(-1) ~d:0
         ~sl_words:zero)
  else incr cut;
  List.iter
    (fun s ->
      if m.find_state s >= 0 then incr dup_seeds
      else if !n < max_states then
        ignore
          (admit_state (fun () -> m.add_state s) ~ps:(-1) ~pa:(-1) ~d:max_int
             ~sl_words:zero)
      else incr cut)
    probe.Probe.seed_states;
  let t_workers = ref 0.0 and t_merge = ref 0.0 in
  while not (Queue.is_empty queue) do
    let mlen = Queue.length queue in
    let round = Array.init mlen (fun _ -> Queue.pop queue) in
    let t0 = now () in
    let get = expansions ~round ~expanded in
    let t1 = now () in
    t_workers := !t_workers +. (t1 -. t0);
    Array.iteri
      (fun r i ->
        let x = get r i in
        set_queued i false;
        if not (expanded i) then begin
          set_expanded i;
          for p = 0 to nprobe - 1 do
            take i m.probe_ids.(p) (-1) (x.x_probe p) x.x_admit zero
          done
        end;
        for t = 0 to ntasks - 1 do
          move_act.(t) <- x.x_mact t
        done;
        if por then begin
          Array.fill first_en 0 (Array.length first_en) (-1);
          for t = ntasks - 1 downto 0 do
            if move_act.(t) >= 0 then first_en.(m.canon.(t)) <- t
          done
        end;
        for t = 0 to ntasks - 1 do
          let a = move_act.(t) in
          if a >= 0 then begin
            let cb = m.canon.(t) in
            if not (test_bit done_w i cb) then begin
              if por && test_bit sleep_w i cb then incr slept
              else begin
                if por then begin
                  for w = 0 to nwords - 1 do
                    sl.(w) <- 0;
                    let cand =
                      Pack.ints_get sleep_w ((i * nwords) + w)
                      lor Pack.ints_get done_w ((i * nwords) + w)
                    in
                    if cand <> 0 then
                      for b = 0 to bits_per_word - 1 do
                        if cand land (1 lsl b) <> 0 then begin
                          let v = first_en.((w * bits_per_word) + b) in
                          if v >= 0 && x.x_commute v move_act.(v) t a then
                            sl.(w) <- sl.(w) lor (1 lsl b)
                        end
                      done
                  done
                end;
                set_bit done_w i cb;
                take i a t (x.x_step t a) x.x_admit (if por then sl else zero)
              end
            end
          end
        done)
      round;
    t_merge := !t_merge +. (now () -. t1)
  done;
  let t2 = now () in
  let transitions = Pack.ints_len esrc in
  let result =
    { Space.states = Array.init !n m.state_value;
      edges =
        Array.init transitions (fun e ->
            { Space.src = Pack.ints_get esrc e;
              dst = Pack.ints_get edst e;
              act = m.act_value (Pack.ints_get eact e);
              task =
                (let t = Pack.ints_get etask e in
                 if t < 0 then None else Some m.task_names.(t));
            });
      parent =
        Array.init !n (fun i ->
            let ps = Pack.ints_get parent_s i in
            if ps < 0 then None
            else Some (ps, m.act_value (Pack.ints_get parent_a i)));
      depth = Array.init !n (Pack.ints_get depth);
      verdict =
        (if !cut = 0 then Space.Exhausted else Space.Truncated max_states);
      por;
      stats =
        { Space.transitions; slept = !slept; cut = !cut; dup_seeds = !dup_seeds };
    }
  in
  (match profile with
  | None -> ()
  | Some f ->
    f "workers" !t_workers;
    f "merge" !t_merge;
    f "decode" (now () -. t2));
  result

let canon_of names =
  Array.init (Array.length names) (fun t ->
      let rec go u = if String.equal names.(u) names.(t) then u else go (u + 1) in
      go 0)

(* --- composition backend: packed product states, step tables --- *)

exception Ro_miss

(* A worker-resolved expansion: successor codes against the frozen key
   table ([-2] = fresh, key bytes and hash shipped alongside), enabled
   act ids per task, and the POR commute matrix over task pairs.
   Workers bail out ([None]) on any table miss; the merge replays those
   states through the machine, which fills the tables. *)
type cpacket = {
  c_probe : int array; (* [||] once expanded *)
  c_pkeys : Bytes.t;
  c_phash : int array;
  c_mact : int array;
  c_step : int array;
  c_skeys : Bytes.t;
  c_shash : int array;
  c_comm : Bytes.t; (* ntasks * ntasks, empty with POR off *)
}

type ('s, 'a) comp_backend = {
  cb_machine : ('s, 'a) machine;
  cb_ro : por:bool -> expanded:bool -> int -> cpacket option;
  cb_of_packet : cpacket -> expansion;
}

(* Step-table keys pack (component state id, action id) into one int:
   action ids get 22 bits (far beyond any catalog subject's distinct
   structural actions); beyond that the table is bypassed, never
   wrong. *)
let act_key_bits = 22
let act_key_limit = 1 lsl act_key_bits

let backend_of_composition (type a) (comp : a Composition.t)
    (probe : (a Composition.state, a) Probe.t) :
    (a Composition.state, a) comp_backend =
  let comps = Composition.components comp in
  let k = Array.length comps in
  let tids = Composition.tasks_array comp in
  let ntasks = Array.length tids in
  let task_names = Array.map Composition.task_full_name tids in
  let tcs = Array.map Array.length (Composition.comp_task_indices comp) in
  let cinter =
    Array.map
      (fun _ ->
        Pack.interner ~hash:Component.state_hash ~equal:Component.equal_state ())
      comps
  in
  let acts = Pack.interner ~equal:Pack.total_equal () in
  let probe_ids =
    Array.of_list (List.map (Pack.intern acts) probe.Probe.actions)
  in
  let width = k * Pack.id_bytes in
  let keys = Pack.keyset ~width in
  let scratch = Bytes.create width in
  let pending_h = ref 0 in
  let sid_comp sid c = Pack.key_id keys sid c in
  (* Decode-once cache: the machine is driven state by state (many
     probes, moves and commutes against one [sid] in a row), so the
     merge-side callers read the packed component ids through a
     one-entry cache instead of re-slicing the arena per call.  Workers
     never touch it — [cb_ro] decodes into its own locals. *)
  let cur_sid = ref (-1) in
  let cur_ids = Array.make (max 1 k) 0 in
  let ids_of sid =
    if !cur_sid <> sid then begin
      for c = 0 to k - 1 do
        cur_ids.(c) <- sid_comp sid c
      done;
      cur_sid := sid
    end;
    cur_ids
  in
  let smemo = Array.init k (fun _ -> Pack.itab ()) in
  (* Probe actions are interned first, so their ids are dense in
     [0, ncols).  They are also the hot, high-fan-out ones — every
     product transition steps them — so each gets a per-component
     dense successor column indexed by component state id (-2 =
     unfilled), turning the per-transition hashed memo probe into an
     array read.  Structural actions (forced crashes etc., interned
     later) keep the hashed [smemo] path.  This is the "flood gap"
     fix of ROADMAP item 2: flood's merge was dominated by step-memo
     lookups. *)
  let ncols = Array.fold_left (fun m a -> max m (a + 1)) 0 probe_ids in
  let cols = Array.init k (fun _ -> Array.init ncols (fun _ -> Pack.ints ())) in
  let comp_step_raw c csid aid =
    let inst = Pack.value cinter.(c) csid in
    match Component.step inst (Pack.value acts aid) with
    | None -> -1
    | Some inst' -> if inst' == inst then csid else Pack.intern cinter.(c) inst'
  in
  let comp_step c csid aid =
    if aid < ncols then begin
      let col = cols.(c).(aid) in
      while Pack.ints_len col <= csid do
        Pack.ints_push col (-2)
      done;
      let v = Pack.ints_get col csid in
      if v <> -2 then v
      else begin
        let v = comp_step_raw c csid aid in
        Pack.ints_set col csid v;
        v
      end
    end
    else if aid < act_key_limit then begin
      let key = (csid lsl act_key_bits) lor aid in
      let v = Pack.itab_find smemo.(c) key in
      if v <> Pack.itab_absent then v
      else begin
        let v = comp_step_raw c csid aid in
        Pack.itab_add smemo.(c) key v;
        v
      end
    end
    else comp_step_raw c csid aid
  in
  let en = Array.map (fun _ -> Pack.ints ()) comps in
  let en_get c csid ti =
    let stride = tcs.(c) in
    let idx = (csid * stride) + ti in
    while Pack.ints_len en.(c) <= idx do
      Pack.ints_push en.(c) (-2)
    done;
    let v = Pack.ints_get en.(c) idx in
    if v <> -2 then v
    else begin
      let v =
        match Component.enabled_of_task (Pack.value cinter.(c) csid) ti with
        | None -> -1
        | Some a -> Pack.intern acts a
      in
      Pack.ints_set en.(c) idx v;
      v
    end
  in
  (* Per-action participation: signatures are state-independent, and
     [Component.step] hands back the instance itself (physically) for
     actions outside a component's signature — so a non-participant is
     an identity step that can never block, and the product step only
     needs to consult the participants.  Catalog actions touch 2-3 of
     the k components, so this cuts the per-transition table lookups by
     ~k/3.  Computed lazily per action id, on the merge side only
     (workers read the finished entries, [Ro_miss] otherwise). *)
  let insts0 = Composition.start comp in
  let parts = ref (Array.make 16 None) in
  let parts_of aid =
    let cap = Array.length !parts in
    if aid >= cap then begin
      let b = Array.make (max (2 * cap) (aid + 1)) None in
      Array.blit !parts 0 b 0 cap;
      parts := b
    end;
    match (!parts).(aid) with
    | Some a -> a
    | None ->
      let v = Pack.value acts aid in
      let buf = ref [] in
      for c = k - 1 downto 0 do
        if Component.inst_kind_of insts0.(c) v <> None then buf := c :: !buf
      done;
      let a = Array.of_list !buf in
      (!parts).(aid) <- Some a;
      a
  in
  (* Step the whole product on id tuples; true iff unblocked.  [dst]
     must hold a copy of [src]'s tuple for the non-participating slots
     — callers either blit first or step in place. *)
  let step_from src aid dst =
    let ps = parts_of aid in
    if dst != src then Array.blit src 0 dst 0 k;
    let ok = ref true in
    let i = ref 0 in
    let np = Array.length ps in
    while !ok && !i < np do
      let c = Array.unsafe_get ps !i in
      let succ = comp_step c (Array.unsafe_get src c) aid in
      if succ < 0 then ok := false else Array.unsafe_set dst c succ;
      incr i
    done;
    !ok
  in
  let step_dst = Array.make (max 1 k) 0 in
  let s1a = Array.make (max 1 k) 0
  and s2a = Array.make (max 1 k) 0
  and s12a = Array.make (max 1 k) 0
  and s21a = Array.make (max 1 k) 0 in
  let pack_boxed (s : a Composition.state) =
    for c = 0 to k - 1 do
      Pack.set_id scratch (c * Pack.id_bytes) (Pack.intern cinter.(c) s.(c))
    done;
    Pack.key_hash keys scratch
  in
  let state_value sid =
    Array.init k (fun c -> Pack.value cinter.(c) (sid_comp sid c))
  in
  let machine =
    { ntasks;
      task_names;
      canon = canon_of task_names;
      probe_ids;
      start_s = Composition.start comp;
      find_state =
        (fun s ->
          let h = pack_boxed s in
          Pack.find_key keys scratch h);
      add_state =
        (fun s ->
          let h = pack_boxed s in
          Pack.add_key keys scratch h);
      state_value;
      act_value = (fun a -> Pack.value acts a);
      enabled =
        (fun sid t ->
          let tid = tids.(t) in
          en_get tid.Composition.comp_idx
            (ids_of sid).(tid.Composition.comp_idx)
            tid.Composition.task_idx);
      step =
        (fun sid aid ->
          let ids = ids_of sid in
          if step_from ids aid step_dst then begin
            let ps = parts_of aid in
            (* self-loop shortcut: if no participant moved, the packed
               successor is byte-identical to the source key, so the
               dedup lookup can only answer [sid] — skip it.  Probe
               actions are input-enabled no-ops in most states, so this
               shortcut fires constantly. *)
            let changed = ref false in
            for i = 0 to Array.length ps - 1 do
              let c = Array.unsafe_get ps i in
              if Array.unsafe_get step_dst c <> Array.unsafe_get ids c then
                changed := true
            done;
            if not !changed then sid
            else begin
              Pack.key_get keys sid scratch;
              for i = 0 to Array.length ps - 1 do
                let c = Array.unsafe_get ps i in
                Pack.set_id scratch (c * Pack.id_bytes) step_dst.(c)
              done;
              let h = Pack.key_hash keys scratch in
              let j = Pack.find_key keys scratch h in
              if j >= 0 then j
              else begin
                pending_h := h;
                -2
              end
            end
          end
          else -1);
      admit = (fun () -> Pack.add_key keys scratch !pending_h);
      commute =
        (fun sid u au t at ->
          let ids = ids_of sid in
          if step_from ids at s1a && step_from ids au s2a then begin
            let tu = tids.(u) and tt = tids.(t) in
            let au' =
              en_get tu.Composition.comp_idx
                s1a.(tu.Composition.comp_idx)
                tu.Composition.task_idx
            and at' =
              en_get tt.Composition.comp_idx
                s2a.(tt.Composition.comp_idx)
                tt.Composition.task_idx
            in
            au' >= 0 && at' >= 0
            && probe.Probe.equal_action (Pack.value acts au') (Pack.value acts au)
            && probe.Probe.equal_action (Pack.value acts at') (Pack.value acts at)
            && step_from s1a au' s12a
            && step_from s2a at' s21a
            &&
            let eq = ref true in
            for c = 0 to k - 1 do
              if s12a.(c) <> s21a.(c) then eq := false
            done;
            !eq
          end
          else false);
    }
  in
  (* Boxed commute for workers: pure, table-free, identical to
     [Space.commute] on the flattened automaton. *)
  let commute_boxed st tid_u au_v tid_t at_v =
    match (Composition.step comp st at_v, Composition.step comp st au_v) with
    | Some s1, Some s2 -> (
      match (Composition.enabled comp s1 tid_u, Composition.enabled comp s2 tid_t)
      with
      | Some au', Some at'
        when probe.Probe.equal_action au' au_v
             && probe.Probe.equal_action at' at_v -> (
        match (Composition.step comp s1 au', Composition.step comp s2 at') with
        | Some s12, Some s21 -> probe.Probe.equal_state s12 s21
        | _ -> false)
      | _ -> false)
    | _ -> false
  in
  (* Worker expansion: read-only against the frozen tables.  Any miss
     aborts the packet; the merge replays that state sequentially. *)
  let cb_ro ~por ~expanded sid =
    let ro_comp_step c csid aid =
      if aid < ncols then begin
        let col = cols.(c).(aid) in
        if csid >= Pack.ints_len col then raise Ro_miss
        else begin
          let v = Pack.ints_get col csid in
          if v = -2 then raise Ro_miss else v
        end
      end
      else if aid >= act_key_limit then raise Ro_miss
      else begin
        let v = Pack.itab_find smemo.(c) ((csid lsl act_key_bits) lor aid) in
        if v = Pack.itab_absent then raise Ro_miss else v
      end
    in
    let ro_en c csid ti =
      let idx = (csid * tcs.(c)) + ti in
      if idx >= Pack.ints_len en.(c) then raise Ro_miss
      else begin
        let v = Pack.ints_get en.(c) idx in
        if v = -2 then raise Ro_miss else v
      end
    in
    let ro_parts aid =
      let p = !parts in
      if aid < Array.length p then
        match Array.unsafe_get p aid with
        | Some a -> a
        | None -> raise Ro_miss
      else raise Ro_miss
    in
    let buf = Bytes.create width in
    let ro_step aid keysb off =
      let ps = ro_parts aid in
      Pack.key_get keys sid buf;
      let ok = ref true and changed = ref false in
      let i = ref 0 in
      let np = Array.length ps in
      while !ok && !i < np do
        let c = Array.unsafe_get ps !i in
        let cur = sid_comp sid c in
        let succ = ro_comp_step c cur aid in
        if succ < 0 then ok := false
        else begin
          if succ <> cur then changed := true;
          Pack.set_id buf (c * Pack.id_bytes) succ
        end;
        incr i
      done;
      if not !ok then (-1, 0)
      else if not !changed then
        (* self-loop: the successor key is the source's — dedup can
           only answer [sid] (the hash is unused on resolved codes) *)
        (sid, 0)
      else begin
        let h = Pack.hash_slice buf 0 width in
        let j = Pack.find_key keys buf h in
        if j >= 0 then (j, h)
        else begin
          Bytes.blit buf 0 keysb off width;
          (-2, h)
        end
      end
    in
    try
      let nprobe = Array.length probe_ids in
      let c_probe, c_pkeys, c_phash =
        if expanded then ([||], Bytes.empty, [||])
        else begin
          let code = Array.make nprobe (-1) in
          let kb = Bytes.create (nprobe * width) in
          let hs = Array.make nprobe 0 in
          for p = 0 to nprobe - 1 do
            let c, h = ro_step probe_ids.(p) kb (p * width) in
            code.(p) <- c;
            hs.(p) <- h
          done;
          (code, kb, hs)
        end
      in
      let c_mact = Array.make (max 1 ntasks) (-1) in
      for t = 0 to ntasks - 1 do
        let tid = tids.(t) in
        c_mact.(t) <-
          ro_en tid.Composition.comp_idx
            (sid_comp sid tid.Composition.comp_idx)
            tid.Composition.task_idx
      done;
      let c_step = Array.make (max 1 ntasks) (-1) in
      let c_skeys = Bytes.create (ntasks * width) in
      let c_shash = Array.make (max 1 ntasks) 0 in
      for t = 0 to ntasks - 1 do
        if c_mact.(t) >= 0 then begin
          let c, h = ro_step c_mact.(t) c_skeys (t * width) in
          c_step.(t) <- c;
          c_shash.(t) <- h
        end
      done;
      let c_comm =
        if not por then Bytes.empty
        else begin
          let b = Bytes.make (ntasks * ntasks) '\000' in
          let st = state_value sid in
          for u = 0 to ntasks - 1 do
            if c_mact.(u) >= 0 then
              for t = 0 to ntasks - 1 do
                if c_mact.(t) >= 0 then
                  if
                    commute_boxed st tids.(u)
                      (Pack.value acts c_mact.(u))
                      tids.(t)
                      (Pack.value acts c_mact.(t))
                  then Bytes.set b ((u * ntasks) + t) '\001'
              done
          done;
          b
        end
      in
      Some { c_probe; c_pkeys; c_phash; c_mact; c_step; c_skeys; c_shash; c_comm }
    with Ro_miss -> None
  in
  (* Merge-side view of a packet: fresh codes are re-probed against the
     now-current key table (this round's admissions included) with the
     candidate parked in the machine scratch, so [x_admit] is the
     machine's own admit. *)
  let cb_of_packet p =
    let repro keysb off h =
      Bytes.blit keysb off scratch 0 width;
      let j = Pack.find_key keys scratch h in
      if j >= 0 then j
      else begin
        pending_h := h;
        -2
      end
    in
    { x_probe =
        (fun pi ->
          let c = p.c_probe.(pi) in
          if c <> -2 then c else repro p.c_pkeys (pi * width) p.c_phash.(pi));
      x_mact = (fun t -> p.c_mact.(t));
      x_step =
        (fun t _a ->
          let c = p.c_step.(t) in
          if c <> -2 then c else repro p.c_skeys (t * width) p.c_shash.(t));
      x_admit = machine.admit;
      x_commute =
        (fun u _au t _at -> Bytes.get p.c_comm ((u * ntasks) + t) = '\001');
    }
  in
  { cb_machine = machine; cb_ro; cb_of_packet }

(* --- entry points --- *)

let sequential m ~round:_ ~expanded:_ _r i = direct m i

let explore_composition ?(por = false) ?(jobs = 1) ?profile comp probe =
  let b = backend_of_composition comp probe in
  let m = b.cb_machine in
  if jobs <= 1 then run_core ~por ~probe ?profile m ~expansions:(sequential m) ()
  else
    Afd_runner.Pool.with_pool ~jobs (fun pool ->
        let expansions ~round ~expanded =
          let inputs = Array.map (fun i -> (i, expanded i)) round in
          let packets =
            Afd_runner.Pool.map_pool pool
              (fun (i, exp) -> b.cb_ro ~por ~expanded:exp i)
              inputs
          in
          fun r i ->
            match packets.(r) with
            | Some p -> b.cb_of_packet p
            | None -> direct m i
        in
        run_core ~por ~probe ?profile m ~expansions ())

