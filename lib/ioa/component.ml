type 'a t = C : ('s, 'a) Automaton.t -> 'a t

type 'a inst = I : ('s, 'a) Automaton.t * ('s, 'a) Automaton.task array * 's -> 'a inst

let name (C a) = a.Automaton.name
let kind_of (C a) act = a.Automaton.kind act

let init (C a) = I (a, Array.of_list a.Automaton.tasks, a.Automaton.start)

let inst_name (I (a, _, _)) = a.Automaton.name

(* Untouched components return the instance itself (physically): both
   out-of-signature actions and transitions that hand back the very
   same state value.  Composition.step detects unmoved components with
   [==] and the scheduler invalidates only the tasks of moved ones. *)
let step (I (a, ts, s) as inst) act =
  match a.Automaton.kind act with
  | None -> Some inst
  | Some _ -> (
    match a.Automaton.step s act with
    | None -> None
    | Some s' -> if s' == s then Some inst else Some (I (a, ts, s')))

let task_names (C a) =
  List.map (fun t -> (t.Automaton.task_name, t.Automaton.fair)) a.Automaton.tasks

let task_count (I (_, ts, _)) = Array.length ts

let enabled_of_task (I (_, ts, s)) k =
  if k < 0 || k >= Array.length ts then None else ts.(k).Automaton.enabled s

let enabled_actions (I (a, _, s)) = Automaton.enabled_actions a s

(* Component states are pure data (no closures), so structural
   polymorphic equality on the untyped representation is sound.  The
   name check guards against comparing instances of different
   components, whose states would have different types. *)
let equal_state (I (a1, _, s1)) (I (a2, _, s2)) =
  if not (String.equal a1.Automaton.name a2.Automaton.name) then
    invalid_arg "Component.equal_state: different components";
  Stdlib.compare (Obj.repr s1) (Obj.repr s2) = 0

let state_hash (I (_, _, s)) = Hashtbl.hash s
