open Afd_ioa

type t = {
  n : int;
  composition : Act.t Composition.t;
}

let assemble ~n ?(detectors = []) ?(environment = []) ?(extras = []) ?channels
    ~crashable ~processes () =
  let channels = match channels with Some c -> c | None -> Channel.all_pairs ~n in
  let comps =
    processes
    @ channels
    @ [ Component.C (Crash.automaton ~n ~crashable) ]
    @ detectors @ environment @ extras
  in
  { n; composition = Composition.make ~name:"net" comps }

type run = {
  outcome : Act.t Scheduler.outcome;
  trace : Act.t list;
}

let finish outcome =
  { outcome; trace = List.map snd outcome.Scheduler.fired }

let run t ~seed ~crash_at ~steps =
  let cfg =
    { Scheduler.policy = Scheduler.Random seed;
      max_steps = steps;
      stop_when_quiescent = true;
      forced = Crash.forces crash_at;
    }
  in
  finish (Scheduler.run t.composition cfg)

let run_round_robin t ~crash_at ~steps =
  let cfg =
    { Scheduler.policy = Scheduler.Round_robin;
      max_steps = steps;
      stop_when_quiescent = true;
      forced = Crash.forces crash_at;
    }
  in
  finish (Scheduler.run t.composition cfg)

let decisions trace =
  List.filter_map
    (function Act.Decide { at; v } -> Some (at, v) | _ -> None)
    trace

let proposals trace =
  List.filter_map
    (function Act.Propose { at; v } -> Some (at, v) | _ -> None)
    trace
