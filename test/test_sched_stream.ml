(* Differential tests for the streaming scheduler hot path.

   The optimized scheduler caches per-task enabledness and refreshes
   only the tasks of components touched by each fired action; the
   random policy draws from a reused scratch array; fault-injection
   waiting jumps the step counter instead of spinning.  All of that is
   supposed to be invisible: this module re-implements the original
   naive scheduler (rescan every task every step, list-based random
   pick, one-step idle spin) against the public [Composition] API and
   checks — over qcheck-generated component catalogs, policies, seeds
   and fault patterns — that fired sequences, final states and
   quiescence flags are identical.

   The same treatment covers the other rewritten samplers:
   [Scheduler.contains] (KMP) against the quadratic substring spec, and
   [Trace_ops.gen_reordering] (scratch-array linear-extension sampler)
   against the original list-based one, RNG draw for RNG draw. *)

open Afd_ioa
open Afd_core

(* ------------------------------------------------------------------ *)
(* A parametric catalog of interacting components                      *)
(* ------------------------------------------------------------------ *)

(* Worker k outputs its tick (action [k]) up to [limit] times while
   alive, listens to other workers' ticks, and dies on its crash input
   (action [100 + k]).  Dead workers swallow inputs by returning the
   state unchanged — physically — which exercises the untouched-
   component fast path of [Composition.step_touched]. *)
type wstate = { sent : int; recv : int; alive : bool }

let worker k ~limit ~listens =
  let crash_a = 100 + k in
  { Automaton.name = "wrk" ^ string_of_int k;
    kind =
      (fun a ->
        if a = k then Some Automaton.Output
        else if a = crash_a || List.mem a listens then Some Automaton.Input
        else None);
    start = { sent = 0; recv = 0; alive = true };
    step =
      (fun s a ->
        if a = k then
          if s.alive && s.sent < limit then Some { s with sent = s.sent + 1 }
          else None
        else if a = crash_a then if s.alive then Some { s with alive = false } else Some s
        else if List.mem a listens then
          if s.alive then Some { s with recv = s.recv + 1 } else Some s
        else None);
    tasks =
      [ { Automaton.task_name = "tick";
          fair = true;
          enabled = (fun s -> if s.alive && s.sent < limit then Some k else None);
        }
      ];
  }

(* Crash injector for worker k: a non-fair task that fires at most
   once, only when forced. *)
let crasher k =
  { Automaton.name = "crash" ^ string_of_int k;
    kind = (fun a -> if a = 100 + k then Some Automaton.Output else None);
    start = false;
    step = (fun s a -> if a = 100 + k && not s then Some true else None);
    tasks =
      [ { Automaton.task_name = "boom";
          fair = false;
          enabled = (fun s -> if s then None else Some (100 + k));
        }
      ];
  }

type worker_spec = { limit : int; listens : int list; with_crash : bool }

type catalog = {
  workers : worker_spec list;
  policy : Scheduler.policy;
  forced : Scheduler.force list;
  max_steps : int;
  stop_when_quiescent : bool;
}

let build cat =
  Composition.make ~name:"catalog"
    (List.concat
       (List.mapi
          (fun k w ->
            Component.C (worker k ~limit:w.limit ~listens:w.listens)
            :: (if w.with_crash then [ Component.C (crasher k) ] else []))
          cat.workers))

let cfg_of cat =
  { Scheduler.policy = cat.policy;
    max_steps = cat.max_steps;
    stop_when_quiescent = cat.stop_when_quiescent;
    forced = cat.forced;
  }

let catalog_gen =
  QCheck2.Gen.(
    let worker_gen n k =
      let* limit = int_bound 8 in
      let* listen_flags = list_repeat n bool in
      let listens =
        List.concat (List.mapi (fun j f -> if f && j <> k then [ j ] else []) listen_flags)
      in
      let* with_crash = bool in
      return { limit; listens; with_crash }
    in
    let pattern_gen =
      oneofl [ "boom"; "tick"; "wrk"; "crash"; ""; "zz"; "wrk1/tick"; "crash0/boom" ]
    in
    let force_gen =
      map2
        (fun at p -> { Scheduler.at_step = at; task_pattern = p })
        (int_bound 60) pattern_gen
    in
    let* n = 1 -- 3 in
    let rec workers_gen k =
      if k >= n then return []
      else
        let* w = worker_gen n k in
        let* rest = workers_gen (k + 1) in
        return (w :: rest)
    in
    let* workers = workers_gen 0 in
    let* policy =
      oneof
        [ return Scheduler.Round_robin;
          map (fun s -> Scheduler.Random s) (int_bound 10_000);
        ]
    in
    let* forced = list_size (int_bound 3) force_gen in
    let* max_steps = int_bound 150 in
    let* stop_when_quiescent = bool in
    return { workers; policy; forced; max_steps; stop_when_quiescent })

(* ------------------------------------------------------------------ *)
(* The naive reference scheduler (the pre-optimization implementation) *)
(* ------------------------------------------------------------------ *)

let naive_contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let full_name (tid : Composition.task_id) =
  tid.Composition.comp_name ^ "/" ^ tid.Composition.task_name

type 'a naive_outcome = {
  n_fired : (Composition.task_id * 'a) list;
  n_final : 'a Composition.state;
  n_quiescent : bool;
}

let patience comp =
  let ntasks = List.length (Composition.tasks comp) in
  (Scheduler.starvation_bound ~ntasks - 1) / ntasks

let naive_run comp (cfg : Scheduler.cfg) =
  let tasks = Array.of_list (Composition.tasks comp) in
  let ntasks = Array.length tasks in
  let patience = patience comp in
  let rng =
    match cfg.policy with
    | Round_robin -> Stdlib.Random.State.make [| 0 |]
    | Random seed -> Stdlib.Random.State.make [| seed |]
  in
  let starving = Array.make ntasks 0 in
  let rr_cursor = ref 0 in
  let state = ref (Composition.start comp) in
  let fired = ref [] in
  let pending_forced =
    ref
      (List.sort
         (fun a b -> compare a.Scheduler.at_step b.Scheduler.at_step)
         cfg.forced)
  in
  let quiescent = ref false in
  let step = ref 0 in
  let fire tid act =
    (match Composition.step comp !state act with
    | Some st' -> state := st'
    | None -> invalid_arg "naive_run: enabled action failed to step");
    fired := (tid, act) :: !fired
  in
  let forced_candidate () =
    match !pending_forced with
    | { Scheduler.at_step; task_pattern } :: rest when at_step <= !step -> (
      let found = ref None in
      Array.iter
        (fun tid ->
          if !found = None && naive_contains ~needle:task_pattern (full_name tid)
          then
            match Composition.enabled comp !state tid with
            | Some act -> found := Some (tid, act)
            | None -> ())
        tasks;
      pending_forced := rest;
      !found)
    | _ -> None
  in
  let pick_round_robin () =
    let rec go tried =
      if tried >= ntasks then None
      else
        let k = (!rr_cursor + tried) mod ntasks in
        let tid = tasks.(k) in
        if not tid.Composition.fair then go (tried + 1)
        else
          match Composition.enabled comp !state tid with
          | Some act ->
            rr_cursor := (k + 1) mod ntasks;
            Some (tid, act)
          | None -> go (tried + 1)
    in
    go 0
  in
  let pick_random () =
    let starved = ref None in
    Array.iteri
      (fun k tid ->
        if !starved = None && tid.Composition.fair && starving.(k) > patience * ntasks
        then
          match Composition.enabled comp !state tid with
          | Some act -> starved := Some (k, tid, act)
          | None -> ())
      tasks;
    match !starved with
    | Some (k, tid, act) ->
      starving.(k) <- 0;
      Some (tid, act)
    | None ->
      let enabled = ref [] in
      Array.iteri
        (fun k tid ->
          if tid.Composition.fair then
            match Composition.enabled comp !state tid with
            | Some act ->
              enabled := (k, tid, act) :: !enabled;
              starving.(k) <- starving.(k) + 1
            | None -> starving.(k) <- 0)
        tasks;
      (match !enabled with
      | [] -> None
      | l ->
        let arr = Array.of_list l in
        let k, tid, act = arr.(Stdlib.Random.State.int rng (Array.length arr)) in
        starving.(k) <- 0;
        Some (tid, act))
  in
  let continue = ref true in
  while !continue && !step < cfg.max_steps do
    let choice =
      match forced_candidate () with
      | Some c -> Some c
      | None -> (
        match cfg.policy with
        | Round_robin -> pick_round_robin ()
        | Random _ -> pick_random ())
    in
    match choice with
    | Some (tid, act) ->
      fire tid act;
      incr step
    | None ->
      if !pending_forced = [] then begin
        quiescent := true;
        continue := false
      end
      else incr step (* idle-spin one step at a time towards the force *)
  done;
  { n_fired = List.rev !fired; n_final = !state; n_quiescent = !quiescent }

(* ------------------------------------------------------------------ *)
(* Differential property: cached scheduler == naive scheduler          *)
(* ------------------------------------------------------------------ *)

let check_catalog cat =
  let comp = build cat in
  let cfg = cfg_of cat in
  let reference = naive_run comp cfg in
  let o = Scheduler.run comp cfg in
  if o.Scheduler.fired <> reference.n_fired then
    Alcotest.fail "fired sequence differs from the naive scheduler";
  if not (Composition.equal_state o.Scheduler.final_state reference.n_final)
  then Alcotest.fail "final state differs from the naive scheduler";
  if o.Scheduler.quiescent <> reference.n_quiescent then
    Alcotest.fail "quiescence flag differs from the naive scheduler";
  (* The fired schedule, replayed on the composition, ends in the
     reported final state. *)
  if
    not
      (Composition.equal_state
         (Execution.final (Rebuild.execution comp o))
         o.Scheduler.final_state)
  then Alcotest.fail "replayed fired schedule does not end in final_state";
  true

let prop_differential =
  QCheck2.Test.make ~name:"cached scheduler == naive scheduler"
    ~count:300 catalog_gen check_catalog

(* ------------------------------------------------------------------ *)
(* contains == substring specification                                 *)
(* ------------------------------------------------------------------ *)

let prop_contains =
  (* Small alphabet so overlapping-prefix needles (the KMP-interesting
     cases) are common. *)
  let str_gen =
    QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 12))
  in
  QCheck2.Test.make ~name:"contains == naive substring spec" ~count:2000
    QCheck2.Gen.(pair str_gen str_gen)
    (fun (needle, hay) ->
      Scheduler.contains ~needle hay = naive_contains ~needle hay)

(* ------------------------------------------------------------------ *)
(* gen_reordering == naive linear-extension sampler                    *)
(* ------------------------------------------------------------------ *)

let naive_gen_reordering rng t =
  let arr = Array.of_list t in
  let m = Array.length arr in
  let must_precede x y =
    Loc.equal (Fd_event.loc arr.(x)) (Fd_event.loc arr.(y)) || Fd_event.is_crash arr.(x)
  in
  let indeg = Array.make (max 1 m) 0 in
  let succs = Array.make (max 1 m) [] in
  for x = 0 to m - 1 do
    for y = x + 1 to m - 1 do
      if must_precede x y then begin
        indeg.(y) <- indeg.(y) + 1;
        succs.(x) <- y :: succs.(x)
      end
    done
  done;
  let ready = ref (List.filter (fun x -> indeg.(x) = 0) (List.init m Fun.id)) in
  let out = ref [] in
  while !ready <> [] do
    let candidates = Array.of_list !ready in
    let pick = candidates.(Random.State.int rng (Array.length candidates)) in
    ready := List.filter (fun x -> x <> pick) !ready;
    out := arr.(pick) :: !out;
    List.iter
      (fun y ->
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then ready := y :: !ready)
      succs.(pick)
  done;
  List.rev !out

let prop_gen_reordering =
  QCheck2.Test.make ~name:"gen_reordering == naive sampler, draw for draw"
    ~count:150
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 10_000))
    (fun (trace_seed, rng_seed) ->
      let t =
        Afd_automata.generate_trace
          ~detector:(Afd_automata.fd_perfect ~n:3)
          ~n:3 ~seed:trace_seed
          ~crash_at:[ (7, 1) ]
          ~steps:40
      in
      let a = Trace_ops.gen_reordering (Random.State.make [| rng_seed |]) t in
      let b = naive_gen_reordering (Random.State.make [| rng_seed |]) t in
      List.equal (Fd_event.equal Loc.Set.equal) a b
      && Trace_ops.is_constrained_reordering ~of_:t a)

(* ------------------------------------------------------------------ *)
(* Observer path                                                       *)
(* ------------------------------------------------------------------ *)

let test_observer_streams_every_step () =
  let cat =
    { workers =
        [ { limit = 5; listens = [ 1 ]; with_crash = true };
          { limit = 4; listens = [ 0 ]; with_crash = false };
        ];
      policy = Scheduler.Random 3;
      forced = [ { Scheduler.at_step = 3; task_pattern = "boom" } ];
      max_steps = 60;
      stop_when_quiescent = true;
    }
  in
  let comp = build cat in
  let seen = ref [] in
  let observer ~step tid act ~touched st' =
    (* touched indices must be ascending and name real components *)
    let rec ascending = function
      | a :: (b :: _ as rest) -> a < b && ascending rest
      | _ -> true
    in
    if not (ascending touched) then Alcotest.fail "touched indices not ascending";
    if touched = [] then Alcotest.fail "a fired step touched no component";
    seen := (step, tid, act, st') :: !seen
  in
  let o = Scheduler.run ~observer comp (cfg_of cat) in
  let seen = List.rev !seen in
  Alcotest.(check int) "observer saw every fired step"
    (List.length o.Scheduler.fired)
    (List.length seen);
  List.iteri
    (fun i ((tid, act), (step, tid', act', _st')) ->
      Alcotest.(check int) "step indices follow firing order" i step;
      if tid <> tid' || act <> act' then Alcotest.fail "observer saw a different step")
    (List.combine o.Scheduler.fired seen);
  (* post-states streamed to the observer are the states of the fired
     schedule replayed on the composition *)
  let exe_states = List.map snd (Execution.steps (Rebuild.execution comp o)) in
  List.iter2
    (fun st (_, _, _, st') ->
      if not (Composition.equal_state st st') then
        Alcotest.fail "observer post-state differs from the replayed execution")
    exe_states seen

(* Streaming fairness: a monitor fed from the observer hook must agree
   with the offline [Fairness.analyze] of the replayed execution (the
   two paths share accounting but detect touched components
   differently: indices from the scheduler vs physical diff). *)
let test_fairness_streaming_equals_offline () =
  List.iter
    (fun seed ->
      let cat =
        { workers =
            [ { limit = 20; listens = [ 1; 2 ]; with_crash = true };
              { limit = 15; listens = []; with_crash = false };
              { limit = 10; listens = [ 0 ]; with_crash = true };
            ];
          policy = Scheduler.Random seed;
          forced = [ { Scheduler.at_step = 9; task_pattern = "boom" } ];
          max_steps = 80;
          stop_when_quiescent = true;
        }
      in
      let comp = build cat in
      let mon = Fairness.create comp (Composition.start comp) in
      let observer ~step:_ _tid act ~touched st' =
        Fairness.observe_touched mon act ~touched st'
      in
      let o = Scheduler.run ~observer comp (cfg_of cat) in
      let streamed = Fairness.finalize mon in
      let offline = Fairness.analyze comp (Rebuild.execution comp o) in
      if streamed <> offline then
        Alcotest.failf "seed %d: streamed fairness report differs from offline" seed)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Long runs in bounded memory                                         *)
(* ------------------------------------------------------------------ *)

(* A property-checked streaming run must live in O(window) memory: the
   scheduler keeps no per-step states, [record_fired:false] drops the
   fired-trace accumulator, and the monitor keeps only its summary,
   witness ring and fold accumulators.  A million-step run therefore
   may not grow the live heap by anything near what the materialized
   trace would cost (>= 5M words); the bound below leaves an order of
   magnitude of slack while still catching any O(steps) growth. *)
let test_monitored_run_bounded_memory () =
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let m = Afd.monitor ~window:32 Perfect.spec ~n:3 in
  let events = ref 0 in
  let before = live_words () in
  let o =
    Afd_automata.run_monitored
      ~observe:(fun e ->
        incr events;
        Afd_prop.Monitor.observe m e)
      ~detector:(Afd_automata.fd_perfect ~n:3)
      ~n:3 ~seed:11
      ~crash_at:[ (10, 1) ]
      ~steps:1_000_000 ()
  in
  let after = live_words () in
  Alcotest.(check int) "ran the full budget" 1_000_000 o.Scheduler.steps_taken;
  Alcotest.(check int) "no fired trace accumulated" 0 (List.length o.Scheduler.fired);
  Alcotest.(check int) "monitor saw every fired event" o.Scheduler.steps_taken !events;
  Alcotest.(check bool) "online verdict on the full run" true
    (Verdict.is_sat (Afd_prop.Monitor.verdict m));
  let grown = after - before in
  if grown > 1_000_000 then
    Alcotest.failf "monitored run retained %d live words (O(window) violated)" grown

(* ------------------------------------------------------------------ *)
(* Stall semantics: quiescent vs stopped-idle                          *)
(* ------------------------------------------------------------------ *)

let test_stopped_idle_flags () =
  (* Unforced crash task still enabled at the stop: idle, not silent. *)
  let idle_cat =
    { workers = [ { limit = 3; listens = []; with_crash = true } ];
      policy = Scheduler.Round_robin;
      forced = [];
      max_steps = 100;
      stop_when_quiescent = true;
    }
  in
  let o = Scheduler.run (build idle_cat) (cfg_of idle_cat) in
  Alcotest.(check bool) "quiescent (no fair task enabled)" true o.Scheduler.quiescent;
  Alcotest.(check bool) "stopped idle (crash task still armed)" true
    o.Scheduler.stopped_idle;
  (* No crash component: terminally silent. *)
  let silent_cat =
    { idle_cat with workers = [ { limit = 3; listens = []; with_crash = false } ] }
  in
  let o = Scheduler.run (build silent_cat) (cfg_of silent_cat) in
  Alcotest.(check bool) "quiescent" true o.Scheduler.quiescent;
  Alcotest.(check bool) "not idle (nothing armed)" false o.Scheduler.stopped_idle;
  (* Forced crash fires, worker dies, crash task exhausted: silent. *)
  let fired_cat =
    { idle_cat with
      forced = [ { Scheduler.at_step = 1; task_pattern = "boom" } ];
      workers = [ { limit = 10; listens = []; with_crash = true } ];
    }
  in
  let o = Scheduler.run (build fired_cat) (cfg_of fired_cat) in
  Alcotest.(check bool) "quiescent after the forced crash" true o.Scheduler.quiescent;
  Alcotest.(check bool) "crash consumed: not idle" false o.Scheduler.stopped_idle;
  (* Far-future force past max_steps: the jump must still respect the
     budget (steps_taken = max_steps) and fire nothing new. *)
  let far_cat =
    { idle_cat with
      forced = [ { Scheduler.at_step = 10_000; task_pattern = "boom" } ];
      max_steps = 50;
    }
  in
  let o = Scheduler.run (build far_cat) (cfg_of far_cat) in
  Alcotest.(check int) "stopped at the budget" 50 o.Scheduler.steps_taken;
  Alcotest.(check int) "only the worker's own ticks fired" 3
    (List.length o.Scheduler.fired)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_differential; prop_contains; prop_gen_reordering ]
  @ [ Alcotest.test_case "observer streams every fired step" `Quick
        test_observer_streams_every_step;
      Alcotest.test_case "streaming fairness == offline analyze" `Quick
        test_fairness_streaming_equals_offline;
      Alcotest.test_case "monitored 10^6-step run stays in O(window) memory" `Quick
        test_monitored_run_bounded_memory;
      Alcotest.test_case "quiescent vs stopped-idle stall flags" `Quick
        test_stopped_idle_flags;
    ]
