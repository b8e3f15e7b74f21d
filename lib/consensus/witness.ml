open Afd_ioa
open Afd_system

type state = {
  chosen : bool option;
  crashed : Loc.Set.t;
  decided_at : Loc.Set.t;
}

let automaton ~n =
  let kind = function
    | Act.Crash _ -> Some Automaton.Input
    | Act.Propose _ -> Some Automaton.Input
    | Act.Decide _ -> Some Automaton.Output
    | _ -> None
  in
  let can_decide st i =
    match st.chosen with
    | Some v
      when (not (Loc.Set.mem i st.crashed)) && not (Loc.Set.mem i st.decided_at) ->
      Some v
    | _ -> None
  in
  let step st = function
    | Act.Crash i -> Some { st with crashed = Loc.Set.add i st.crashed }
    | Act.Propose { v; _ } ->
      Some (if st.chosen = None then { st with chosen = Some v } else st)
    | Act.Decide { at; v } ->
      if can_decide st at = Some v then
        Some { st with decided_at = Loc.Set.add at st.decided_at }
      else None
    | _ -> None
  in
  let task i =
    { Automaton.task_name = Printf.sprintf "decide_%s" (Loc.to_string i);
      fair = true;
      enabled =
        (fun st -> Option.map (fun v -> Act.Decide { at = i; v }) (can_decide st i));
    }
  in
  { Automaton.name = "U-consensus";
    kind;
    start = { chosen = None; crashed = Loc.Set.empty; decided_at = Loc.Set.empty };
    step;
    tasks = List.map task (Loc.universe ~n);
  }

let output_bound ~n = n

let sample_traces ~n ~seeds ~steps =
  List.map
    (fun seed ->
      let crash_at = if seed mod 2 = 0 then [ (4, seed mod n) ] else [] in
      let crashable =
        List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
      in
      let comp =
        Composition.make ~name:"witness-system"
          (Component.C (automaton ~n)
          :: Component.C (Crash.automaton ~n ~crashable)
          :: Environment.consensus ~n)
      in
      let cfg =
        { Scheduler.policy = Scheduler.Random seed;
          max_steps = steps;
          stop_when_quiescent = true;
          forced = Crash.forces crash_at;
        }
      in
      List.map snd (Scheduler.run comp cfg).Scheduler.fired)
    seeds
