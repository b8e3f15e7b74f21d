open Afd_ioa

type 'o act = Orig of 'o Fd_event.t | Renamed of Loc.t * 'o

let pp_act pp_o fmt = function
  | Orig e -> Fd_event.pp pp_o fmt e
  | Renamed (i, o) -> Format.fprintf fmt "fd'(%a)_%a" pp_o o Loc.pp i

type 'o state = { fdq : 'o list; failed : bool }

let self_automaton ~loc =
  let kind = function
    | Orig (Fd_event.Crash i) when Loc.equal i loc -> Some Automaton.Input
    | Orig (Fd_event.Output (i, _)) when Loc.equal i loc -> Some Automaton.Input
    | Renamed (i, _) when Loc.equal i loc -> Some Automaton.Output
    | Orig _ | Renamed _ -> None
  in
  let step st = function
    | Orig (Fd_event.Crash i) when Loc.equal i loc -> Some { st with failed = true }
    | Orig (Fd_event.Output (i, o)) when Loc.equal i loc ->
      Some { st with fdq = st.fdq @ [ o ] }
    | Renamed (i, o) when Loc.equal i loc -> (
      match st.fdq with
      | head :: rest when (not st.failed) && Stdlib.compare head o = 0 ->
        Some { st with fdq = rest }
      | _ -> None)
    | Orig _ | Renamed _ -> None
  in
  let task =
    { Automaton.task_name = Printf.sprintf "renamed_%s" (Loc.to_string loc);
      fair = true;
      enabled =
        (fun st ->
          match st.fdq with
          | head :: _ when not st.failed -> Some (Renamed (loc, head))
          | _ -> None);
    }
  in
  { Automaton.name = Printf.sprintf "Aself_%s" (Loc.to_string loc);
    kind;
    start = { fdq = []; failed = false };
    step;
    tasks = [ task ];
  }

type 'o run = {
  combined : 'o act list;
  original : 'o Fd_event.t list;
  renamed : 'o Fd_event.t list;
}

let run ~detector ~n ~seed ~crash_at ~steps =
  let crashable =
    List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at
  in
  let lift aut =
    Automaton.rename
      ~to_:(fun e -> Orig e)
      ~of_:(function Orig e -> Some e | Renamed _ -> None)
      aut
  in
  let comps =
    Component.C (lift detector)
    :: Component.C (lift (Afd_automata.crash_automaton ~n ~crashable))
    :: List.map (fun i -> Component.C (self_automaton ~loc:i)) (Loc.universe ~n)
  in
  let comp = Composition.make ~name:"self-impl" comps in
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
  let original = List.filter_map (function Orig e -> Some e | Renamed _ -> None) combined in
  let renamed =
    List.filter_map
      (function
        | Orig (Fd_event.Crash i) -> Some (Fd_event.Crash i)
        | Orig (Fd_event.Output _) -> None
        | Renamed (i, o) -> Some (Fd_event.Output (i, o)))
      combined
  in
  { combined; original; renamed }

let check_theorem13 ~spec ~detector ~n ~seed ~crash_at ~steps =
  let r = run ~detector ~n ~seed ~crash_at ~steps in
  match Afd.check spec ~n r.original with
  | Verdict.Violated reason ->
    Error (Printf.sprintf "detector trace not in T_D (%s): theorem hypothesis broken" reason)
  | Verdict.Undecided reason ->
    Error (Printf.sprintf "detector trace undecided (%s): run longer" reason)
  | Verdict.Sat -> (
    match Afd.check spec ~n r.renamed with
    | Verdict.Sat -> Ok ()
    | v ->
      Error
        (Fmt.str "renamed trace not in T_D': %a (renamed trace: %a)" Verdict.pp v
           (Fd_event.pp_trace spec.Afd.pp_out)
           r.renamed))
