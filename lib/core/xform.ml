open Afd_ioa

type ('i, 'o) act = In of 'i Fd_event.t | Out of Loc.t * 'o

let pp_act pp_i pp_o fmt = function
  | In e -> Fd_event.pp pp_i fmt e
  | Out (i, o) -> Format.fprintf fmt "out(%a)_%a" pp_o o Loc.pp i

type 'i state = { latest : 'i option; failed : bool }

let local_transformer ~name ~loc ~f =
  let kind = function
    | In (Fd_event.Crash i) when Loc.equal i loc -> Some Automaton.Input
    | In (Fd_event.Output (i, _)) when Loc.equal i loc -> Some Automaton.Input
    | Out (i, _) when Loc.equal i loc -> Some Automaton.Output
    | In _ | Out _ -> None
  in
  let current st = Option.map (f loc) st.latest in
  let step st = function
    | In (Fd_event.Crash i) when Loc.equal i loc -> Some { st with failed = true }
    | In (Fd_event.Output (i, o)) when Loc.equal i loc -> Some { st with latest = Some o }
    | Out (i, o) when Loc.equal i loc ->
      if (not st.failed) && current st = Some o then Some st else None
    | In _ | Out _ -> None
  in
  let task =
    { Automaton.task_name = Printf.sprintf "out_%s" (Loc.to_string loc);
      fair = true;
      enabled =
        (fun st ->
          if st.failed then None
          else Option.map (fun o -> Out (loc, o)) (current st));
    }
  in
  { Automaton.name = Printf.sprintf "%s_%s" name (Loc.to_string loc);
    kind;
    start = { latest = None; failed = false };
    step;
    tasks = [ task ];
  }

type ('i, 'o) run = {
  source : 'i Fd_event.t list;
  target : 'o Fd_event.t list;
}

let run ~detector ~f ~name ~n ~seed ~crash_at ~steps =
  let crashable =
    List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
  in
  let lift aut =
    Automaton.rename
      ~to_:(fun e -> In e)
      ~of_:(function In e -> Some e | Out _ -> None)
      aut
  in
  let comps =
    Component.C (lift detector)
    :: Component.C (lift (Afd_automata.crash_automaton ~n ~crashable))
    :: List.map
         (fun i -> Component.C (local_transformer ~name ~loc:i ~f))
         (Loc.universe ~n)
  in
  let comp = Composition.make ~name comps in
  let forced =
    List.map
      (fun (k, i) ->
        { Scheduler.at_step = k; task_pattern = "crash/crash_" ^ Loc.to_string i })
      crash_at
  in
  let cfg =
    { Scheduler.policy = Scheduler.Random seed;
      max_steps = steps;
      stop_when_quiescent = true;
      forced;
    }
  in
  let outcome = Scheduler.run comp cfg in
  let combined = List.map snd outcome.Scheduler.fired in
  let source = List.filter_map (function In e -> Some e | Out _ -> None) combined in
  let target =
    List.filter_map
      (function
        | In (Fd_event.Crash i) -> Some (Fd_event.Crash i)
        | In (Fd_event.Output _) -> None
        | Out (i, o) -> Some (Fd_event.Output (i, o)))
      combined
  in
  { source; target }

let apply_to_trace ~f t =
  List.map
    (function
      | Fd_event.Crash i -> Fd_event.Crash i
      | Fd_event.Output (i, o) -> Fd_event.Output (i, f i o))
    t
