(* Reference explorer for the differential tests: BFS with a list
   seen-set, O(n) membership scan per push.  This is the semantics
   (visit order included) that [Space.explore ~por:false] and the
   parallel explorer must reproduce on every catalog subject. *)

open Afd_ioa
open Afd_analysis

let list_based aut probe =
  let seen = ref [] and count = ref 0 in
  let mem s = List.exists (probe.Probe.equal_state s) !seen in
  let queue = Queue.create () in
  let push s =
    if !count < probe.Probe.max_states && not (mem s) then begin
      seen := s :: !seen;
      incr count;
      Queue.add s queue
    end
  in
  push aut.Automaton.start;
  List.iter push probe.Probe.seed_states;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    let step_all acts =
      List.iter
        (fun act ->
          match aut.Automaton.step s act with Some s' -> push s' | None -> ())
        acts
    in
    step_all probe.Probe.actions;
    step_all (Automaton.enabled_actions aut s)
  done;
  List.rev !seen
