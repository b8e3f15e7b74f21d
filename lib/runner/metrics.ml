open Afd_core

type outcome = {
  verdict : Verdict.t;
  steps_fired : int;
  quiescent : bool;
  detail : string;
  counterexample : int option;
  clauses : (string * Verdict.t) list;
}

let outcome ?(steps = 0) ?(quiescent = false) ?(detail = "") ?counterexample
    ?(clauses = []) verdict =
  { verdict; steps_fired = steps; quiescent; detail; counterexample; clauses }

let of_result ?steps ?detail = function
  | Ok () -> outcome ?steps ?detail Verdict.Sat
  | Error e -> outcome ?steps ?detail (Verdict.Violated e)

type counts = { sat : int; undecided : int; violated : int }

let counts outcomes =
  List.fold_left
    (fun c o ->
      match o.verdict with
      | Verdict.Sat -> { c with sat = c.sat + 1 }
      | Verdict.Undecided _ -> { c with undecided = c.undecided + 1 }
      | Verdict.Violated _ -> { c with violated = c.violated + 1 })
    { sat = 0; undecided = 0; violated = 0 }
    outcomes

let all_sat outcomes = List.for_all (fun o -> Verdict.is_sat o.verdict) outcomes

type cell = {
  seed_index : int;
  fault_index : int;
  scheduler_seed : int;
  outcome : outcome;
}

type exp = {
  id : string;
  section : string;
  label : string;
  cells : cell list;
  rendered : string;
}

let exp_counts e = counts (List.map (fun c -> c.outcome) e.cells)
let exp_steps e = List.fold_left (fun acc c -> acc + c.outcome.steps_fired) 0 e.cells
