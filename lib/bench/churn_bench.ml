(* Churn-simulation rows (CN) for the experiment matrix.

   One cell = one seeded run of the mega discrete-event engine.  The
   engine is single-threaded and fully determined by its cfg, so the
   rendered row is byte-identical at any --jobs; the derived cell seed
   feeds cfg.seed, which keys every random stream inside the engine
   (delays, churn, protocol jitter) via Scheduler.Seed.derive. *)

open Afd_core
module R = Afd_runner
module M = Afd_mega

let section = "CN  Churn simulation (event calendar, sparse state, 10^3..10^4 procs)"

let outcome r =
  let verdict =
    if M.Engine.ok r then Verdict.Sat
    else
      match r.M.Engine.monitor_verdict with
      | Verdict.Violated _ as v -> v
      | _ -> Verdict.Violated "faults injected but none detected"
  in
  R.Metrics.outcome ~steps:r.M.Engine.processed ~quiescent:false
    ~detail:(M.Engine.deterministic_summary r)
    ~clauses:r.M.Engine.monitor_clauses verdict

let row ~id ~label ~procs ~events ~churn_rate ~topology ~detector =
  R.Matrix.entry ~id ~section ~label ~show:(R.Matrix.show_detail ~label)
    (fun ~seed ~faults:_ ->
      outcome
        (M.Engine.run (M.Engine.cfg ~procs ~events ~churn_rate ~topology ~detector ~seed ())))

let entries () =
  [ row ~id:"CN.hb-ring" ~label:"CN heartbeat/ring 4k procs, churn 5"
      ~procs:4_000 ~events:150_000 ~churn_rate:5.0 ~topology:(M.Topology.Ring 2)
      ~detector:"hb-pc";
    row ~id:"CN.hb-grid" ~label:"CN heartbeat/grid 4k procs, churn 20"
      ~procs:4_000 ~events:150_000 ~churn_rate:20.0 ~topology:M.Topology.Grid
      ~detector:"hb-pc";
    row ~id:"CN.vcube-hypercube" ~label:"CN vcube/hypercube 4k procs, churn 5"
      ~procs:4_000 ~events:150_000 ~churn_rate:5.0 ~topology:M.Topology.Hypercube
      ~detector:"vcube";
    row ~id:"CN.vcube-quiet" ~label:"CN vcube/hypercube 4k procs, no churn"
      ~procs:4_000 ~events:100_000 ~churn_rate:0.0 ~topology:M.Topology.Hypercube
      ~detector:"vcube";
  ]
