(* Liveness model-checking rows (ML) for the experiment matrix.

   Each row drives the fairness-aware liveness pass end to end and
   reports only its deterministic shape: product states, transitions,
   which Stable clauses were proved (no fair violating cycle under an
   exhausted exploration) or refuted (replay-confirmed lasso).  The
   cell's [steps] is the number of product transitions explored.
   Timing never appears in the rendered row; the mc-catalog workload
   of benchmark/main.exe times the same liveness pass. *)

open Afd_ioa
open Afd_core
module R = Afd_runner
module A = Afd_analysis

let section = "ML  Liveness model checking (SCC condensation, fair-cycle lassos)"

let cap = 6_000

(* Prove both halves of a truthful pairing: the row is Sat iff the
   whole formula — safety and every Stable clause — holds on every
   fair execution of the n=3 instance. *)
let prove_entry ~id ~label ~spec ~detector =
  R.Matrix.entry ~id ~section ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      match
        A.Mc.check_spec ~max_states:cap ~n:3 spec ~detector:(detector ())
      with
      | Error e -> R.Metrics.outcome ~detail:("FAIL: " ^ e) (Verdict.Violated e)
      | Ok o ->
        let detail =
          Printf.sprintf "states=%d verdict=%s liveness-proved=[%s]"
            o.A.Mc.states
            (A.Space.verdict_string o.A.Mc.verdict)
            (String.concat "," o.A.Mc.liveness_proved)
        in
        R.Metrics.outcome ~steps:o.A.Mc.transitions ~detail
          (if o.A.Mc.proved then Verdict.Sat
           else Verdict.Violated "truthful pairing not proved"))

(* Refute a liveness-broken pairing: the row is Sat iff the fair-cycle
   search produced at least one lasso of the expected kind and every
   lasso replays through the online monitor with the clause still
   non-Sat. *)
let refute_entry ~id ~label ~kind ~spec ~detector =
  R.Matrix.entry ~id ~section ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      match
        A.Mc.check_spec ~max_states:cap ~n:3 spec ~detector:(detector ())
      with
      | Error e -> R.Metrics.outcome ~detail:("FAIL: " ^ e) (Verdict.Violated e)
      | Ok o ->
        let kind_str = function `Cycle -> "fair-cycle" | `Stop -> "fair-stop" in
        let ok =
          o.A.Mc.lassos <> []
          && List.for_all (fun l -> l.A.Mc.l_confirmed) o.A.Mc.lassos
          && List.exists (fun l -> l.A.Mc.l_kind = kind) o.A.Mc.lassos
        in
        let detail =
          Printf.sprintf "states=%d lassos=[%s]" o.A.Mc.states
            (String.concat ","
               (List.map
                  (fun l ->
                    Printf.sprintf "%s:%s@%d%s" (kind_str l.A.Mc.l_kind)
                      l.A.Mc.l_clause l.A.Mc.l_depth
                      (if l.A.Mc.l_confirmed then "" else "(UNCONFIRMED)"))
                  o.A.Mc.lassos))
        in
        R.Metrics.outcome ~steps:o.A.Mc.transitions ~detail
          (if ok then Verdict.Sat
           else Verdict.Violated "expected a replay-confirmed lasso"))

(* Raw condensation throughput over a closed system's explored graph:
   states in, SCCs out.  The row is Sat iff every state lands in an
   SCC and the condensation found at least one cycle-capable SCC (the
   detector system can always keep outputting). *)
let scc_entry ~id ~label ~detector =
  R.Matrix.entry ~id ~section ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      let d = detector () in
      let comp =
        Composition.make ~name:"live-bench"
          [ Component.C d;
            Component.C
              (Afd_automata.crash_automaton ~n:3
                 ~crashable:(Loc.set_of_universe ~n:3));
          ]
      in
      let a = Composition.as_automaton comp in
      let p =
        A.Probe.make
          ~equal_state:Composition.equal_state
          ~hash_state:Composition.hash_state ~max_states:cap []
      in
      let sp = A.Space.explore a p in
      let live = A.Live.analyze a sp in
      let cyclic =
        Array.to_list live.A.Live.sccs
        |> List.filter (fun s -> s.A.Live.internal <> [])
        |> List.length
      in
      let covered =
        Array.for_all
          (fun i -> i >= 0 && i < Array.length live.A.Live.sccs)
          live.A.Live.scc_of
      in
      let detail =
        Printf.sprintf "states=%d sccs=%d cycle-capable=%d fair-tasks=%d"
          (Array.length sp.A.Space.states)
          (Array.length live.A.Live.sccs)
          cyclic
          (List.length live.A.Live.fair_tasks)
      in
      R.Metrics.outcome ~steps:sp.A.Space.stats.A.Space.transitions ~detail
        (if covered && cyclic > 0 then Verdict.Sat
         else Verdict.Violated "condensation lost states or found no cycle"))

let entries () =
  [ prove_entry ~id:"ML.omega" ~label:"prove Omega: FD-Omega, n=3"
      ~spec:Omega.spec
      ~detector:(fun () -> Afd_automata.fd_omega ~n:3);
    prove_entry ~id:"ML.p" ~label:"prove P: FD-P, n=3" ~spec:Perfect.spec
      ~detector:(fun () -> Afd_automata.fd_perfect ~n:3);
    refute_entry ~id:"ML.flipflop" ~label:"refute FD-FlipFlop vs Omega (lasso)"
      ~kind:`Cycle ~spec:Omega.spec
      ~detector:(fun () -> Afd_automata.fd_flip_flop ~n:3);
    refute_entry ~id:"ML.silent" ~label:"refute FD-Silent vs P (fair stop)"
      ~kind:`Stop ~spec:Perfect.spec
      ~detector:(fun () -> Afd_automata.fd_silent ~n:3);
    scc_entry ~id:"ML.scc" ~label:"condense FD-Sigma + crash, n=3"
      ~detector:(fun () -> Afd_automata.fd_sigma ~n:3);
  ]
