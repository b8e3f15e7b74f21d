(* Compiled-exploration rows (CX) for the experiment matrix.

   Each row explores one of the MX net compositions with the compiled
   explorer (Cspace: packed state keys, defunctionalized per-component
   step tables) at a fixed domain count, POR off and POR on, and
   asserts the equality gate: both compiled explorations must be
   structurally identical (Space.agree — states in order, edges in
   order, parents, depths, verdict, stats) to the sequential boxed
   Space.explore references.  The rendered detail carries only
   deterministic shape, so the verdict table stays byte-identical at
   any --jobs and any domain count; the cell's [steps] counts the
   transitions explored, feeding the same aggregate transitions/sec
   the perf gate tracks for MX and PX.

   Wall-clock speedup (compiled vs boxed states/s, and the large-cap
   packed run) is measured in the harness's perf section
   (bench/main.ml, CX timing), not here: matrix rows must never render
   timing. *)

open Afd_ioa
open Afd_system
module C = Afd_consensus
module R = Afd_runner
module A = Afd_analysis

let section = "CX  Compiled exploration (packed states, step tables, Cspace)"

let cap = 6_000

let domain_counts = [ 1; 2; 4 ]

let probe acts =
  A.Probe.make ~equal_action:Act.equal ~pp_action:Act.pp
    ~equal_state:Composition.equal_state ~hash_state:Composition.hash_state
    ~max_states:cap acts

let entry ~id ~label ~jobs mk_comp acts =
  let label = Printf.sprintf "%s, %d domains" label jobs in
  R.Matrix.entry ~id ~section ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed:_ ~faults:_ ->
      let a = Composition.as_automaton (mk_comp ()) in
      let p = probe acts in
      let agree =
        A.Space.agree ~equal_state:Composition.equal_state
          ~equal_action:Act.equal
      in
      let seq_off = A.Space.explore ~por:false a p in
      let seq_on = A.Space.explore ~por:true a p in
      let cmp_off = A.Cspace.explore_composition ~por:false ~jobs (mk_comp ()) p in
      let cmp_on = A.Cspace.explore_composition ~por:true ~jobs (mk_comp ()) p in
      let ok_off = agree seq_off cmp_off and ok_on = agree seq_on cmp_on in
      let detail =
        Printf.sprintf
          "states=%d verdict=%s edges=%d POR-edges=%d boxed-equal=%b \
           por-boxed-equal=%b"
          (Array.length cmp_off.A.Space.states)
          (A.Space.verdict_string cmp_off.A.Space.verdict)
          (Array.length cmp_off.A.Space.edges)
          (Array.length cmp_on.A.Space.edges)
          ok_off ok_on
      in
      R.Metrics.outcome
        ~steps:
          (cmp_off.A.Space.stats.A.Space.transitions
          + cmp_on.A.Space.stats.A.Space.transitions)
        ~detail
        (if ok_off && ok_on then Afd_core.Verdict.Sat
         else
           Afd_core.Verdict.Violated
             "compiled exploration diverged from the boxed explorer"))

let entries () =
  List.concat_map
    (fun jobs ->
      [ entry ~id:(Printf.sprintf "CX.heartbeat.j%d" jobs)
          ~label:"heartbeat net, cap 6000" ~jobs
          (fun () ->
            (Heartbeat.net ~n:3 ~initial_timeout:2
               ~crashable:(Loc.Set.singleton 2) ())
              .Net.composition)
          Explore_bench.heartbeat_acts;
        entry ~id:(Printf.sprintf "CX.flood.j%d" jobs)
          ~label:"flood consensus net, cap 6000" ~jobs
          (fun () ->
            (C.Flood_p.net ~n:3 ~f:1 ~crashable:(Loc.Set.singleton 2) ())
              .Net.composition)
          Explore_bench.flood_acts;
      ])
    domain_counts
