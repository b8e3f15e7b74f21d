(* Empirical check of the scheduler's starvation backstop — the bound
   scheduler.mli documents is now exported as
   [Scheduler.starvation_bound] and asserted here over long random
   runs — plus regression tests that the round-robin policy is
   RNG-free (its outcomes can never depend on a seed). *)

open Afd_ioa

(* A clock automaton: one always-enabled fair task outputting its own
   id.  Composing n clocks gives a system where every task is enabled
   at every step — the worst case for starvation under random
   scheduling. *)
let clock k =
  { Automaton.name = "clk" ^ string_of_int k;
    kind = (fun a -> if a = k then Some Automaton.Output else None);
    start = 0;
    step = (fun s a -> if a = k then Some (s + 1) else None);
    tasks =
      [ { Automaton.task_name = "tick"; fair = true; enabled = (fun _ -> Some k) } ];
  }

let clocks n =
  Composition.make ~name:"clocks" (List.init n (fun k -> Component.C (clock k)))

(* Replay the outcome: for each step, every fair task that is enabled
   in the pre-state and does not fire accrues one step of wait; firing
   or being disabled resets it.  Returns the worst wait observed.  The
   pre-states come from the fired schedule replayed on the composition
   ({!Rebuild}). *)
let max_wait comp outcome =
  let tasks = Array.of_list (Composition.tasks comp) in
  let states = Array.of_list (Execution.states (Rebuild.execution comp outcome)) in
  let waits = Array.make (Array.length tasks) 0 in
  let worst = ref 0 in
  List.iteri
    (fun step (fired_tid, _act) ->
      let pre = states.(step) in
      Array.iteri
        (fun k tid ->
          if fired_tid = tid then waits.(k) <- 0
          else if tid.Composition.fair && Composition.enabled comp pre tid <> None
          then begin
            waits.(k) <- waits.(k) + 1;
            if waits.(k) > !worst then worst := waits.(k)
          end
          else waits.(k) <- 0)
        tasks)
    outcome.Scheduler.fired;
  !worst

let random_cfg seed max_steps =
  { Scheduler.policy = Scheduler.Random seed;
    max_steps;
    stop_when_quiescent = false;
    forced = [];
  }

let test_starvation_bound () =
  let n = 3 in
  let comp = clocks n in
  let bound = Scheduler.starvation_bound ~ntasks:n in
  List.iter
    (fun seed ->
      let o = Scheduler.run comp (random_cfg seed 2000) in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: full-length run" seed)
        2000
        (List.length o.Scheduler.fired);
      let w = max_wait comp o in
      if w > bound then
        Alcotest.failf "seed %d: an enabled fair task waited %d steps > bound %d"
          seed w bound)
    [ 1; 2; 3; 4; 5 ]

let test_starvation_bound_is_tight_enough () =
  (* Sanity check on the measurement itself: with many tasks the worst
     wait is strictly positive, i.e. the replay really observes
     contention rather than vacuously passing. *)
  let comp = clocks 5 in
  let o = Scheduler.run comp (random_cfg 9 2000) in
  Alcotest.(check bool) "some task waits at least one step" true
    (max_wait comp o > 0)

(* --- round-robin is RNG-free --- *)

let fired_ids outcome = List.map snd outcome.Scheduler.fired

let test_round_robin_ignores_ambient_seed () =
  let comp = clocks 3 in
  let cfg = { Scheduler.default_cfg with max_steps = 300 } in
  Stdlib.Random.init 1;
  let a = Scheduler.run comp cfg in
  Stdlib.Random.init 424242;
  let b = Scheduler.run comp cfg in
  Alcotest.(check (list int)) "identical outcome under different ambient seeds"
    (fired_ids a) (fired_ids b);
  Alcotest.(check (list int)) "cycles tasks in declaration order"
    [ 0; 1; 2; 0; 1; 2 ]
    (List.filteri (fun i _ -> i < 6) (fired_ids a))

let test_random_policy_still_seeded () =
  let comp = clocks 3 in
  let a = Scheduler.run comp (random_cfg 5 300) in
  let b = Scheduler.run comp (random_cfg 5 300) in
  let c = Scheduler.run comp (random_cfg 6 300) in
  Alcotest.(check (list int)) "same seed reproduces" (fired_ids a) (fired_ids b);
  Alcotest.(check bool) "different seed differs" false (fired_ids a = fired_ids c)

let suite =
  [ Alcotest.test_case "random policy honors the starvation bound" `Quick
      test_starvation_bound;
    Alcotest.test_case "replay observes real contention" `Quick
      test_starvation_bound_is_tight_enough;
    Alcotest.test_case "round-robin ignores ambient seeds" `Quick
      test_round_robin_ignores_ambient_seed;
    Alcotest.test_case "random policy is seed-deterministic" `Quick
      test_random_policy_still_seeded;
  ]
