(* Steps are stored newest-first with a materialized count, so the hot
   loop's [extend] is a cons and [length]/[final] are O(1); the
   in-order views ([steps], [schedule], [states]) reverse on demand. *)
type ('s, 'a) t = { start : 's; rev : ('a * 's) list; count : int }

let init s = { start = s; rev = []; count = 0 }
let extend e a s = { e with rev = (a, s) :: e.rev; count = e.count + 1 }
let length e = e.count
let start e = e.start
let steps e = List.rev e.rev

let final e = match e.rev with [] -> e.start | (_, s) :: _ -> s

let schedule e = List.rev_map fst e.rev
let states e = e.start :: List.rev_map snd e.rev
let trace ~external_ e = List.filter external_ (schedule e)

let concat a b =
  if Stdlib.compare (final a) b.start <> 0 then
    invalid_arg "Execution.concat: final state of first is not start of second";
  { start = a.start; rev = b.rev @ a.rev; count = a.count + b.count }

let is_execution_of aut e =
  let rec go s = function
    | [] -> true
    | (a, s') :: rest -> (
      match aut.Automaton.step s a with
      | Some s'' -> Stdlib.compare s'' s' = 0 && go s' rest
      | None -> false)
  in
  Stdlib.compare e.start aut.Automaton.start = 0 && go e.start (steps e)

let apply_schedule aut s0 sched =
  let rec go s rev count = function
    | [] -> Some { start = s0; rev; count }
    | a :: rest -> (
      match aut.Automaton.step s a with
      | Some s' -> go s' ((a, s') :: rev) (count + 1) rest
      | None -> None)
  in
  go s0 [] 0 sched
