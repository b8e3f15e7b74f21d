open Afd_ioa

type state = { stop : bool; proposed : bool option; decided : bool option }

let base_kind ~loc = function
  | Act.Crash i when Loc.equal i loc -> Some Automaton.Input
  | Act.Decide { at; _ } when Loc.equal at loc -> Some Automaton.Input
  | Act.Propose { at; _ } when Loc.equal at loc -> Some Automaton.Output
  | _ -> None

let base_step ~loc st = function
  | Act.Crash i when Loc.equal i loc -> Some { st with stop = true }
  | Act.Decide { at; v } when Loc.equal at loc -> Some { st with decided = Some v }
  | Act.Propose { at; v } when Loc.equal at loc ->
    if st.stop then None else Some { st with stop = true; proposed = Some v }
  | _ -> None

let start = { stop = false; proposed = None; decided = None }

let consensus_at loc =
  let task v =
    { Automaton.task_name = Printf.sprintf "env_%s_%b" (Loc.to_string loc) v;
      fair = true;
      enabled =
        (fun st -> if st.stop then None else Some (Act.Propose { at = loc; v }));
    }
  in
  { Automaton.name = Printf.sprintf "envC_%s" (Loc.to_string loc);
    kind = base_kind ~loc;
    start;
    step = base_step ~loc;
    tasks = [ task false; task true ];
  }

let consensus ~n =
  List.map (fun i -> Component.C (consensus_at i)) (Loc.universe ~n)

let scripted_at loc ~value =
  let task =
    { Automaton.task_name = Printf.sprintf "env_%s_scripted" (Loc.to_string loc);
      fair = true;
      enabled =
        (fun st ->
          if st.stop then None else Some (Act.Propose { at = loc; v = value }));
    }
  in
  { Automaton.name = Printf.sprintf "envS_%s" (Loc.to_string loc);
    kind = base_kind ~loc;
    start;
    step = base_step ~loc;
    tasks = [ task ];
  }

let scripted ~values =
  List.mapi (fun i v -> Component.C (scripted_at i ~value:v)) values

let of_values ~n = function
  | Some values -> scripted ~values
  | None -> consensus ~n
