type policy = Round_robin | Random of int

type force = { at_step : int; task_pattern : string }

type cfg = {
  policy : policy;
  max_steps : int;
  stop_when_quiescent : bool;
  forced : force list;
}

let default_cfg =
  { policy = Round_robin; max_steps = 1000; stop_when_quiescent = true; forced = [] }

type 'a observer =
  step:int ->
  Composition.task_id ->
  'a ->
  touched:int list ->
  'a Composition.state ->
  unit

type 'a outcome = {
  fired : (Composition.task_id * 'a) list;
  quiescent : bool;
  stopped_idle : bool;
  final_state : 'a Composition.state;
  steps_taken : int;
}

let full_name (tid : Composition.task_id) =
  tid.Composition.comp_name ^ "/" ^ tid.Composition.task_name

(* KMP substring search: [matcher needle] preprocesses the needle once
   (O(|needle|)) and the returned predicate scans each haystack in a
   single left-to-right pass (O(|hay|)), replacing the old O(n*m)
   rescan-per-position loop. *)
let matcher needle =
  let m = String.length needle in
  if m = 0 then fun _ -> true
  else begin
    let fail = Array.make m 0 in
    let k = ref 0 in
    for i = 1 to m - 1 do
      while !k > 0 && needle.[i] <> needle.[!k] do
        k := fail.(!k - 1)
      done;
      if needle.[i] = needle.[!k] then incr k;
      fail.(i) <- !k
    done;
    fun hay ->
      let n = String.length hay in
      let q = ref 0 and found = ref false in
      let i = ref 0 in
      while (not !found) && !i < n do
        let c = hay.[!i] in
        while !q > 0 && c <> needle.[!q] do
          q := fail.(!q - 1)
        done;
        if c = needle.[!q] then incr q;
        if !q = m then found := true;
        incr i
      done;
      !found
  end

let contains ~needle hay = matcher needle hay

(* Starvation-bound parameter for the random policy: an enabled fair
   task fires at latest after [patience * #tasks] consecutive steps. *)
let patience = 4

let starvation_bound ~ntasks = (patience * ntasks) + 1

module Seed = struct
  (* splitmix64 (Steele-Lea-Flood).  The finalizer [mix64] is pinned
     against the reference vectors in test/test_seed_derive.ml: any
     change here silently reseeds every derived experiment, so the
     golden test must be updated deliberately, never incidentally. *)
  let golden = 0x9e3779b97f4a7c15L

  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
    logxor z (shift_right_logical z 31)

  (* FNV-1a, 64-bit: stream names enter the derivation as a hash so
     that distinct experiment ids occupy distinct splitmix streams. *)
  let hash_key s =
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      s;
    !h

  let derive ~root ~key ~index =
    let z =
      Int64.add
        (Int64.logxor (Int64.of_int root) (hash_key key))
        (Int64.mul golden (Int64.of_int (index + 1)))
    in
    Int64.to_int (Int64.logand (mix64 (mix64 z)) 0x3fffffffffffffffL)
end

let no_observer ~step:_ _ _ ~touched:_ _ = ()

let run ?(observer = no_observer) ?(record_fired = true) comp cfg =
  let tasks = Composition.tasks_array comp in
  let by_comp = Composition.comp_task_indices comp in
  let ntasks = Array.length tasks in
  (* Task names are only consulted by fault injection: build them once
     per run (not once per probed task per step) and only when there
     is a forced schedule at all. *)
  let names = if cfg.forced = [] then [||] else Array.map full_name tasks in
  (* Round-robin is RNG-free: only the random policy builds a state,
     so its outcomes cannot depend on any seed, by construction. *)
  let rng =
    match cfg.policy with
    | Round_robin -> None
    | Random seed -> Some (Stdlib.Random.State.make [| seed |])
  in
  let starving = Array.make (max 1 ntasks) 0 in
  let rr_cursor = ref 0 in
  let state = ref (Composition.start comp) in
  (* Incremental enabledness: [enabled.(k)] is task [k]'s enabled
     action in the current state.  A task's enabledness depends only on
     its own component's instance, so after a step only the tasks of
     components touched by that step are re-probed. *)
  let enabled = Array.make (max 1 ntasks) None in
  let refresh_task k = enabled.(k) <- Composition.enabled comp !state tasks.(k) in
  for k = 0 to ntasks - 1 do
    refresh_task k
  done;
  let fired = ref [] in
  let pending_forced =
    ref
      (List.map
         (fun f -> (f, matcher f.task_pattern))
         (List.sort (fun a b -> compare a.at_step b.at_step) cfg.forced))
  in
  let quiescent = ref false in
  let stopped_idle = ref false in
  let step = ref 0 in
  let fire tid act =
    (match Composition.step_touched comp !state act with
    | Some (st', touched) ->
      state := st';
      List.iter (fun ci -> Array.iter refresh_task by_comp.(ci)) touched;
      if record_fired then fired := (tid, act) :: !fired;
      observer ~step:!step tid act ~touched st'
    | None -> invalid_arg "Scheduler.run: enabled action failed to step")
  in
  let forced_candidate () =
    match !pending_forced with
    | ({ at_step; _ }, matches) :: rest when at_step <= !step -> (
      let found = ref None in
      let k = ref 0 in
      while !found = None && !k < ntasks do
        (if matches names.(!k) then
           match enabled.(!k) with
           | Some act -> found := Some (tasks.(!k), act)
           | None -> ());
        incr k
      done;
      match !found with
      | Some c ->
        pending_forced := rest;
        Some c
      | None ->
        (* Pattern matched no enabled task: drop it (the fault pattern
           asked to crash an already-crashed or absent location). *)
        pending_forced := rest;
        None)
    | _ -> None
  in
  let pick_round_robin () =
    let rec go tried =
      if tried >= ntasks then None
      else
        let k = (!rr_cursor + tried) mod ntasks in
        if not tasks.(k).Composition.fair then go (tried + 1)
        else
          match enabled.(k) with
          | Some act ->
            rr_cursor := (k + 1) mod ntasks;
            Some (tasks.(k), act)
          | None -> go (tried + 1)
    in
    go 0
  in
  (* Scratch buffer for the random policy's enabled-task collection:
     reused across steps, so the hot loop allocates no per-step list or
     array.  Slots hold task indices in ascending order; the naive
     implementation consed them into a descending list, so index [i]
     of its candidate array is slot [count - 1 - i] here — the RNG
     draw sequence and the chosen tasks are bit-identical. *)
  let scratch = Array.make (max 1 ntasks) 0 in
  let pick_random rng =
    (* Starvation backstop first. *)
    let starved = ref None in
    let k = ref 0 in
    while !starved = None && !k < ntasks do
      (if tasks.(!k).Composition.fair && starving.(!k) > patience * ntasks then
         match enabled.(!k) with
         | Some act -> starved := Some (!k, act)
         | None -> ());
      incr k
    done;
    match !starved with
    | Some (k, act) ->
      starving.(k) <- 0;
      Some (tasks.(k), act)
    | None ->
      let count = ref 0 in
      for k = 0 to ntasks - 1 do
        if tasks.(k).Composition.fair then
          match enabled.(k) with
          | Some _ ->
            scratch.(!count) <- k;
            incr count;
            starving.(k) <- starving.(k) + 1
          | None -> starving.(k) <- 0
      done;
      if !count = 0 then None
      else begin
        let i = Stdlib.Random.State.int rng !count in
        let k = scratch.(!count - 1 - i) in
        starving.(k) <- 0;
        match enabled.(k) with
        | Some act -> Some (tasks.(k), act)
        | None -> assert false
      end
  in
  let continue = ref true in
  while !continue && !step < cfg.max_steps do
    let choice =
      match forced_candidate () with
      | Some c -> Some c
      | None -> (
        match (cfg.policy, rng) with
        | Round_robin, _ -> pick_round_robin ()
        | Random _, Some rng -> pick_random rng
        | Random _, None -> assert false)
    in
    match choice with
    | Some (tid, act) ->
      fire tid act;
      incr step
    | None -> (
      (* No fair task is enabled and nothing is forced right now; the
         state can no longer change on its own. *)
      match !pending_forced with
      | [] ->
        (* Nothing will ever fire again: stop instead of idle-stepping
           to [max_steps].  All fair tasks are disabled here, which is
           exactly [Composition.quiescent]; if some non-fair (crash)
           task is still enabled the system merely went idle, and that
           is reported separately from true quiescence. *)
        quiescent := true;
        stopped_idle := Array.exists Option.is_some enabled;
        continue := false
      | ({ at_step; _ }, _) :: _ ->
        (* Idle-step towards the next forced firing.  The state is
           frozen until then, so jumping the counter is observably
           identical to the old one-step-at-a-time spin. *)
        step := max (!step + 1) (min at_step cfg.max_steps))
  done;
  { fired = List.rev !fired;
    quiescent = !quiescent;
    stopped_idle = !stopped_idle;
    final_state = !state;
    steps_taken = !step;
  }

let run_custom comp ~max_steps ~choose =
  let state = ref (Composition.start comp) in
  let fired = ref [] in
  let continue = ref true in
  let step = ref 0 in
  while !continue && !step < max_steps do
    let enabled = Composition.enabled_tasks comp !state in
    match choose ~step:!step enabled with
    | None -> continue := false
    | Some (tid, act) -> (
      match Composition.step comp !state act with
      | None -> invalid_arg "Scheduler.run_custom: chosen action not enabled"
      | Some st' ->
        state := st';
        fired := (tid, act) :: !fired;
        incr step)
  done;
  { fired = List.rev !fired;
    quiescent = false;
    stopped_idle = false;
    final_state = !state;
    steps_taken = !step;
  }
