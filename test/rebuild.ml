(* The run behind a scheduler outcome, rebuilt state by state.

   The scheduler keeps no intermediate states, only the fired sequence;
   a test that inspects the states replays that schedule on the
   composition's automaton.  The replay does not go through the
   scheduler or its observer, so it is an independent oracle for them. *)

open Afd_ioa

let execution comp (o : 'a Scheduler.outcome) =
  match
    Execution.apply_schedule
      (Composition.as_automaton comp)
      (Composition.start comp)
      (List.map snd o.Scheduler.fired)
  with
  | Some e -> e
  | None -> Alcotest.fail "the fired schedule does not replay on the composition"
