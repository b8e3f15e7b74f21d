open Afd_ioa

let crash_automaton ~n ~crashable =
  let kind = function
    | Fd_event.Crash _ -> Some Automaton.Output
    | Fd_event.Output _ -> None
  in
  let step pending = function
    | Fd_event.Crash i when Loc.Set.mem i pending -> Some (Loc.Set.remove i pending)
    | Fd_event.Crash _ | Fd_event.Output _ -> None
  in
  let task i =
    { Automaton.task_name = Printf.sprintf "crash_%s" (Loc.to_string i);
      fair = false;
      enabled =
        (fun pending -> if Loc.Set.mem i pending then Some (Fd_event.Crash i) else None);
    }
  in
  { Automaton.name = "crash";
    kind;
    start = Loc.Set.inter crashable (Loc.set_of_universe ~n);
    step;
    tasks = List.map task (Loc.universe ~n);
  }

(* Shared shape of Algorithms 1 and 2: state is the crash set; each
   non-crashed location continually outputs [f crashset i]. *)
let truthful ~name ~n ~output =
  let kind = function
    | Fd_event.Crash _ -> Some Automaton.Input
    | Fd_event.Output _ -> Some Automaton.Output
  in
  let step crashset = function
    | Fd_event.Crash i -> Some (Loc.Set.add i crashset)
    | Fd_event.Output (i, o) ->
      (* Enabled iff this is the action our task would produce. *)
      if (not (Loc.Set.mem i crashset)) && output crashset i = Some o then Some crashset
      else None
  in
  let task i =
    { Automaton.task_name = Printf.sprintf "fd_%s" (Loc.to_string i);
      fair = true;
      enabled =
        (fun crashset ->
          if Loc.Set.mem i crashset then None
          else Option.map (fun o -> Fd_event.Output (i, o)) (output crashset i));
    }
  in
  { Automaton.name;
    kind;
    start = Loc.Set.empty;
    step;
    tasks = List.map task (Loc.universe ~n);
  }

let fd_omega ~n =
  truthful ~name:"FD-Omega" ~n ~output:(fun crashset _i ->
      Loc.min_not_in ~n (fun j -> Loc.Set.mem j crashset))

let fd_perfect ~n =
  truthful ~name:"FD-P" ~n ~output:(fun crashset _i -> Some crashset)

let fd_sigma ~n =
  truthful ~name:"FD-Sigma" ~n ~output:(fun crashset _i ->
      Some (Loc.Set.diff (Loc.set_of_universe ~n) crashset))

(* Spare the smallest live location by naming the smallest other one.
   Naming a crashed location is fine — anti-Omega has no accuracy
   clause — and naming anyone {e live} would be wrong once it is the
   only live one left (the old max-live choice failed exactly there:
   with a single live location it named it forever, so no live
   location was ever spared; the fair-cycle pass refutes that corner). *)
let fd_anti_omega ~n =
  truthful ~name:"FD-antiOmega" ~n ~output:(fun crashset _i ->
      match Loc.min_not_in ~n (fun j -> Loc.Set.mem j crashset) with
      | None -> None
      | Some spared -> Loc.min_not_in ~n (fun j -> Loc.equal j spared))

(* The k smallest live locations, padded with the smallest crashed ones
   when fewer than k remain live: always a set of exactly k IDs that
   contains min(live) whenever anyone is live. *)
let k_smallest_preferring_live ~n ~k crashset =
  let live, crashed = List.partition (fun j -> not (Loc.Set.mem j crashset)) (Loc.universe ~n) in
  let rec take acc m = function
    | _ when m = 0 -> List.rev acc
    | [] -> List.rev acc
    | x :: rest -> take (x :: acc) (m - 1) rest
  in
  Loc.Set.of_list (take [] k (live @ crashed))

let fd_omega_k ~n ~k =
  if k < 1 || k > n then invalid_arg "Afd_automata.fd_omega_k: need 1 <= k <= n";
  truthful ~name:(Printf.sprintf "FD-Omega%d" k) ~n ~output:(fun crashset _i ->
      Some (k_smallest_preferring_live ~n ~k crashset))

let fd_psi_k ~n ~k =
  if k < 1 || k > n then invalid_arg "Afd_automata.fd_psi_k: need 1 <= k <= n";
  truthful ~name:(Printf.sprintf "FD-Psi%d" k) ~n ~output:(fun crashset _i ->
      Some (k_smallest_preferring_live ~n ~k crashset))

(* Liveness-broken detectors for the model checker's lasso search.
   Both are safe on every finite prefix (no sampled schedule can latch
   a violation), so they cannot live in the seeded CHECK matrix — only
   a fair-cycle analysis refutes them. *)

(* Alternates between electing the smallest and the largest live
   location on every output anywhere: each individual output is a live
   leader (safety holds), but with >= 2 live locations the last-output
   assignment never converges, so Omega's [stable-leader] is violated
   along a fair cycle while [validity.liveness] still holds (every
   live location outputs forever). *)
let fd_flip_flop ~n =
  let leader (crashset, toggle) =
    let live j = not (Loc.Set.mem j crashset) in
    if toggle then Loc.Set.max_elt_opt (Loc.Set.filter live (Loc.set_of_universe ~n))
    else Loc.min_not_in ~n (fun j -> Loc.Set.mem j crashset)
  in
  let kind = function
    | Fd_event.Crash _ -> Some Automaton.Input
    | Fd_event.Output _ -> Some Automaton.Output
  in
  let step ((crashset, toggle) as st) = function
    | Fd_event.Crash i -> Some (Loc.Set.add i crashset, toggle)
    | Fd_event.Output (i, o) ->
      if (not (Loc.Set.mem i crashset)) && Option.equal Loc.equal (leader st) (Some o)
      then
        Some (crashset, not toggle)
      else None
  in
  let task i =
    { Automaton.task_name = Printf.sprintf "fd_%s" (Loc.to_string i);
      fair = true;
      enabled =
        (fun ((crashset, _) as st) ->
          if Loc.Set.mem i crashset then None
          else Option.map (fun o -> Fd_event.Output (i, o)) (leader st));
    }
  in
  { Automaton.name = "FD-FlipFlop";
    kind;
    start = (Loc.Set.empty, false);
    step;
    tasks = List.map task (Loc.universe ~n);
  }

(* Only location 0 ever outputs (the full crash set, so each output is
   accurate); every other location stays silent forever.  Against P
   this violates no safety clause on any prefix, but the fair cycle in
   which only [fd_0] fires (the other fd tasks are disabled, hence
   weak fairness is vacuous) keeps [validity.liveness] pending
   forever. *)
let fd_silent ~n =
  truthful ~name:"FD-Silent" ~n ~output:(fun crashset i ->
      if i = 0 then Some crashset else None)

type 'o noise = 'o list Loc.Map.t

let noise_of_list l =
  List.fold_right
    (fun (i, o) acc ->
      Loc.Map.update i (function None -> Some [ o ] | Some os -> Some (o :: os)) acc)
    l Loc.Map.empty

(* Noisy variant: state carries per-location noise queues, drained
   before the truthful output. *)
let noisy ~name ~n ~noise ~output =
  let kind = function
    | Fd_event.Crash _ -> Some Automaton.Input
    | Fd_event.Output _ -> Some Automaton.Output
  in
  let next (crashset, queues) i =
    if Loc.Set.mem i crashset then None
    else
      match Loc.Map.find_opt i queues with
      | Some (o :: _) -> Some o
      | Some [] | None -> output crashset i
  in
  let consume queues i =
    Loc.Map.update i
      (function None | Some [] -> None | Some (_ :: rest) -> Some rest)
      queues
  in
  let step (crashset, queues) = function
    | Fd_event.Crash i -> Some (Loc.Set.add i crashset, queues)
    | Fd_event.Output (i, o) ->
      if next (crashset, queues) i = Some o then
        Some (crashset, consume queues i)
      else None
  in
  let task i =
    { Automaton.task_name = Printf.sprintf "fd_%s" (Loc.to_string i);
      fair = true;
      enabled =
        (fun st -> Option.map (fun o -> Fd_event.Output (i, o)) (next st i));
    }
  in
  { Automaton.name;
    kind;
    start = (Loc.Set.empty, noise);
    step;
    tasks = List.map task (Loc.universe ~n);
  }

let fd_omega_noisy ~n ~noise =
  noisy ~name:"FD-Omega-noisy" ~n ~noise
    ~output:(fun crashset _i -> Loc.min_not_in ~n (fun j -> Loc.Set.mem j crashset))

let fd_ev_perfect_noisy ~n ~noise =
  noisy ~name:"FD-EvP-noisy" ~n ~noise ~output:(fun crashset _i -> Some crashset)

let run_system ?(record_fired = true) ?observer ~detector ~n ~seed
    ~crash_at ~steps () =
  let crashable =
    List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
  in
  let comp =
    Composition.make ~name:"fd-system"
      [ Component.C detector; Component.C (crash_automaton ~n ~crashable) ]
  in
  let forced =
    List.map
      (fun (k, i) ->
        { Scheduler.at_step = k;
          task_pattern = "crash/crash_" ^ Loc.to_string i;
        })
      crash_at
  in
  let cfg =
    { Scheduler.policy = Scheduler.Random seed;
      max_steps = steps;
      stop_when_quiescent = true;
      forced;
    }
  in
  Scheduler.run ?observer ~record_fired comp cfg

let generate_trace ~detector ~n ~seed ~crash_at ~steps =
  let outcome = run_system ~detector ~n ~seed ~crash_at ~steps () in
  List.map snd outcome.Scheduler.fired

let run_monitored ?(record_fired = false) ~observe ~detector ~n ~seed ~crash_at
    ~steps () =
  run_system ~record_fired
    ~observer:(fun ~step:_ _tid act ~touched:_ _st -> observe act)
    ~detector ~n ~seed ~crash_at ~steps ()
