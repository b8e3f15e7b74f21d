(* afd_sim: command-line driver for the asynchronous-failure-detector
   simulator.

   Subcommands:
     detector   run a detector automaton under a fault pattern, print
                and check its trace
     consensus  run a consensus algorithm (flood | synod | via-evp)
     selfimpl   run Algorithm 3 (self-implementation) over a detector
     tree       build the tagged execution tree, report valence/hooks
     sweep      run a detector under many derived seeds on a Domain
                pool (the Afd_runner engine) and tally verdicts
     check      run the catalog's online property monitors against the
                offline trace checks (differential verdict table)
     churn      run the discrete-event mega engine: up to ~10^6
                processes under a seeded churn adversary

   Examples:
     afd_sim detector --fd omega -n 4 --crash 10:1 --crash 30:3
     afd_sim consensus --algo synod -n 5 --crash 40:0 --seed 3
     afd_sim tree -n 2 --crash-loc 1
     afd_sim sweep --fd evp --seeds 16 --jobs 4 --crash 15:2
*)

open Cmdliner
open Afd_ioa
open Afd_core
open Afd_system
module C = Afd_consensus
module T = Afd_tree
module R = Afd_runner

(* --- shared argument parsing --- *)

(* Counts are checked at parse time, so a bad one is a usage error
   (cmdliner's exit 124) rather than an exception from deep inside a
   run or a silently empty run. *)
let count_conv ~min ~max ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min && n <= max -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = count_conv ~min:1 ~max:max_int ~what:"a positive count"
let non_negative_int = count_conv ~min:0 ~max:max_int ~what:"a non-negative count"

let n_arg =
  Arg.(
    value & opt positive_int 3 & info [ "n" ] ~docv:"N" ~doc:"Number of locations.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler random seed.")

let steps_arg =
  Arg.(
    value & opt non_negative_int 2000
    & info [ "steps" ] ~docv:"K" ~doc:"Scheduler step budget.")

let crash_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ step; loc ] -> (
      match (int_of_string_opt step, int_of_string_opt loc) with
      | Some k, Some i when k >= 0 -> Ok (k, i)
      | Some k, Some _ -> Error (`Msg (Printf.sprintf "step %d is negative" k))
      | _ -> Error (`Msg "expected STEP:LOC"))
    | _ -> Error (`Msg "expected STEP:LOC")
  in
  let print fmt (k, i) = Format.fprintf fmt "%d:%d" k i in
  Arg.conv (parse, print)

let crash_arg =
  Arg.(
    value
    & opt_all crash_conv []
    & info [ "crash" ] ~docv:"STEP:LOC" ~doc:"Crash location $(i,LOC) at step $(i,STEP); repeatable.")

(* Locations are checked against -n at parse time too: a crash, a
   sender or a set-agreement parameter outside the universe is a usage
   error (exit 124), not a run that silently drops or misreads it.
   These terms read -n themselves and hand it on with what they
   checked. *)
let in_universe ~n ~what i =
  if i >= 0 && i < n then Ok ()
  else Error (Printf.sprintf "%s: location %d is outside 0..%d (-n %d)" what i (n - 1) n)

let n_crash_arg =
  let check n crash_at =
    List.fold_left
      (fun acc (k, i) ->
        Result.bind acc (fun () -> in_universe ~n ~what:(Printf.sprintf "--crash %d:%d" k i) i))
      (Ok ()) crash_at
    |> Result.map (fun () -> (n, crash_at))
  in
  Term.(term_result' ~usage:true (const check $ n_arg $ crash_arg))

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full event trace.")

let crashable_of crash_at =
  List.fold_left (fun acc (_, i) -> Loc.Set.add i acc) Loc.Set.empty crash_at

let print_verdict what v = Format.printf "%-24s %a@." what Verdict.pp v

(* --- detector subcommand --- *)

type which_fd = Omega_fd | P_fd | Evp_noisy_fd

let fd_conv =
  Arg.enum [ ("omega", Omega_fd); ("p", P_fd); ("evp", Evp_noisy_fd) ]

let detector_cmd =
  let fd_arg =
    Arg.(value & opt fd_conv P_fd & info [ "fd" ] ~docv:"FD" ~doc:"Detector: omega, p, or evp.")
  in
  let run which (n, crash_at) seed steps verbose =
    let check_and_print pp spec trace =
      if verbose then
        List.iter (fun e -> Format.printf "  %a@." (Fd_event.pp pp) e) trace;
      Format.printf "events: %d  faulty: %a@." (List.length trace) Loc.pp_set
        (Fd_event.faulty trace);
      print_verdict "spec membership:" (Afd.check spec ~n trace);
      let rng = Random.State.make [| seed |] in
      match Afd.check_all_properties spec ~n ~rng ~trials:50 trace with
      | Ok () -> Format.printf "%-24s ok (50 transforms)@." "closure properties:"
      | Error e -> Format.printf "%-24s %s@." "closure properties:" e
    in
    (match which with
    | Omega_fd ->
      let t =
        Afd_automata.generate_trace ~detector:(Afd_automata.fd_omega ~n) ~n ~seed
          ~crash_at ~steps
      in
      check_and_print Loc.pp Omega.spec t
    | P_fd ->
      let t =
        Afd_automata.generate_trace ~detector:(Afd_automata.fd_perfect ~n) ~n ~seed
          ~crash_at ~steps
      in
      check_and_print Loc.pp_set Perfect.spec t
    | Evp_noisy_fd ->
      let noise =
        Afd_automata.noise_of_list
          (List.map (fun i -> (i, Loc.Set.singleton ((i + 1) mod n))) (Loc.universe ~n))
      in
      let t =
        Afd_automata.generate_trace
          ~detector:(Afd_automata.fd_ev_perfect_noisy ~n ~noise) ~n ~seed ~crash_at
          ~steps
      in
      check_and_print Loc.pp_set Ev_perfect.spec t);
    0
  in
  let term =
    Term.(
      const run $ fd_arg $ n_crash_arg $ seed_arg $ steps_arg $ verbose_arg)
  in
  Cmd.v (Cmd.info "detector" ~doc:"Run a failure-detector automaton and check its trace.") term

(* --- consensus subcommand --- *)

type which_algo = Flood | Synod | Via_evp | Sigma_omega

let algo_conv =
  Arg.enum
    [ ("flood", Flood); ("synod", Synod); ("via-evp", Via_evp);
      ("sigma-omega", Sigma_omega) ]

let consensus_cmd =
  let algo_arg =
    Arg.(
      value & opt algo_conv Synod
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:"Algorithm: flood (uses P), synod (uses Omega), via-evp (EvP->Omega->synod), sigma-omega (dynamic quorums, f <= n-1).")
  in
  let f_arg =
    Arg.(value & opt (some int) None & info [ "f" ] ~docv:"F" ~doc:"Crash tolerance, 0 <= F <= N-1 (default: algorithm-specific).")
  in
  let n_crash_f_arg =
    let check (n, crash_at) f =
      match f with
      | Some f when f < 0 || f >= n ->
        Error (Printf.sprintf "-f %d: expected 0 <= F <= %d (-n %d)" f (n - 1) n)
      | _ -> Ok (n, crash_at, f)
    in
    Term.(term_result' ~usage:true (const check $ n_crash_arg $ f_arg))
  in
  let run algo (n, crash_at, f) seed steps verbose =
    let crashable = crashable_of crash_at in
    let f =
      match (f, algo) with
      | Some f, _ -> f
      | None, (Flood | Sigma_omega) -> n - 1
      | None, (Synod | Via_evp) -> (n - 1) / 2
    in
    let net =
      match algo with
      | Flood -> C.Flood_p.net ~n ~f ~crashable ()
      | Synod -> C.Synod_omega.net ~n ~crashable ()
      | Via_evp -> C.Via_reduction.net ~n ~crashable ()
      | Sigma_omega -> C.Synod_sigma.net ~n ~crashable ()
    in
    let r = Net.run net ~seed ~crash_at ~steps in
    if verbose then
      List.iter
        (fun a ->
          match a with
          | Act.Fd _ -> ()
          | _ -> Format.printf "  %a@." Act.pp a)
        r.Net.trace;
    Format.printf "events: %d@." (List.length r.Net.trace);
    Format.printf "proposals: %a@."
      Fmt.(list ~sep:comma (pair ~sep:(any "=") Loc.pp bool))
      (Net.proposals r.Net.trace);
    Format.printf "decisions: %a@."
      Fmt.(list ~sep:comma (pair ~sep:(any "=") Loc.pp bool))
      (Net.decisions r.Net.trace);
    print_verdict "consensus spec:" (C.Spec.check ~n ~f r.Net.trace);
    (match C.Spec.check ~n ~f r.Net.trace with Verdict.Violated _ -> 1 | _ -> 0)
  in
  let term =
    Term.(
      const run $ algo_arg $ n_crash_f_arg $ seed_arg $ steps_arg $ verbose_arg)
  in
  Cmd.v (Cmd.info "consensus" ~doc:"Run a consensus algorithm over an AFD.") term

(* --- selfimpl subcommand --- *)

let selfimpl_cmd =
  let fd_arg =
    Arg.(value & opt fd_conv Omega_fd & info [ "fd" ] ~docv:"FD" ~doc:"Detector to self-implement.")
  in
  let run which (n, crash_at) seed steps =
    let report name r =
      match r with
      | Ok () -> Format.printf "theorem 13 holds for %s@." name; 0
      | Error e -> Format.printf "FAILED: %s@." e; 1
    in
    (match which with
    | Omega_fd ->
      report "Omega"
        (Self_impl.check_theorem13 ~spec:Omega.spec
           ~detector:(Afd_automata.fd_omega ~n) ~n ~seed ~crash_at ~steps)
    | P_fd ->
      report "P"
        (Self_impl.check_theorem13 ~spec:Perfect.spec
           ~detector:(Afd_automata.fd_perfect ~n) ~n ~seed ~crash_at ~steps)
    | Evp_noisy_fd ->
      let noise = Afd_automata.noise_of_list [ (0, Loc.Set.singleton 1) ] in
      report "EvP"
        (Self_impl.check_theorem13 ~spec:Ev_perfect.spec
           ~detector:(Afd_automata.fd_ev_perfect_noisy ~n ~noise) ~n ~seed ~crash_at
           ~steps))
  in
  let term =
    Term.(const run $ fd_arg $ n_crash_arg $ seed_arg $ steps_arg)
  in
  Cmd.v (Cmd.info "selfimpl" ~doc:"Run Algorithm 3 and verify Theorem 13.") term

(* --- tree subcommand --- *)

let tree_cmd =
  let crash_loc_arg =
    Arg.(
      value & opt (some int) None
      & info [ "crash-loc" ] ~docv:"LOC" ~doc:"Location crashed in t_D (omit for crash-free).")
  in
  let max_nodes_arg =
    Arg.(value & opt int 3_000_000 & info [ "max-nodes" ] ~docv:"B" ~doc:"Quotient-node budget.")
  in
  let n_crash_loc_arg =
    let check n crash_loc =
      match crash_loc with
      | Some c -> Result.map (fun () -> (n, crash_loc)) (in_universe ~n ~what:"--crash-loc" c)
      | None -> Ok (n, crash_loc)
    in
    Term.(term_result' ~usage:true (const check $ n_arg $ crash_loc_arg))
  in
  let run (n, crash_loc) max_nodes =
    let f = 1 in
    let td =
      match crash_loc with
      | Some c -> T.Tree_system.td_one_crash ~n ~crash:c ~pre:1 ~post:3
      | None -> T.Tree_system.td_no_crash ~n ~rounds:3
    in
    Format.printf "t_D = %a@." (Fd_event.pp_trace Act.pp_fd_payload) td;
    match
      T.Tagged_tree.build
        ~system:(T.Tree_system.flood_system ~n ~f)
        ~detector:C.Flood_p.detector_name ~td ~max_nodes
    with
    | Error e -> Format.printf "build failed: %s@." e; 1
    | Ok tree ->
      let va = T.Valence.classify tree in
      let hooks = T.Hook.find_all va in
      let bad = List.filter (fun h -> Result.is_error (T.Hook.check_theorem59 va h)) hooks in
      Format.printf "nodes=%d root-bivalent=%b bivalent=%d blocked=%d@."
        (Array.length tree.T.Tagged_tree.nodes)
        (T.Valence.root_bivalent va)
        (T.Valence.count va T.Valence.Bivalent)
        (T.Valence.count va T.Valence.Blocked);
      Format.printf "hooks=%d theorem-59 failures=%d critical locations=%a@."
        (List.length hooks) (List.length bad)
        Fmt.(list ~sep:comma Loc.pp)
        (List.filter_map T.Hook.critical_location hooks |> List.sort_uniq Loc.compare);
      if bad = [] then 0 else 1
  in
  let term = Term.(const run $ n_crash_loc_arg $ max_nodes_arg) in
  Cmd.v (Cmd.info "tree" ~doc:"Build the tagged execution tree; verify Theorem 59.") term

(* --- kset subcommand --- *)

let kset_cmd =
  let k_arg =
    Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Set-agreement parameter, 1 <= K <= N.")
  in
  let n_crash_k_arg =
    let check (n, crash_at) k =
      if k >= 1 && k <= n then Ok (n, crash_at, k)
      else Error (Printf.sprintf "-k %d: expected 1 <= K <= %d (-n %d)" k n n)
    in
    Term.(term_result' ~usage:true (const check $ n_crash_arg $ k_arg))
  in
  let run (n, crash_at, k) seed steps =
    let crashable = crashable_of crash_at in
    let net = C.Kset.net ~n ~k ~crashable in
    let r = Net.run net ~seed ~crash_at ~steps in
    Format.printf "decisions: %a@."
      Fmt.(list ~sep:comma (pair ~sep:(any "->") Loc.pp Loc.pp))
      (C.Kset.decisions r.Net.trace);
    let distinct =
      List.length (List.sort_uniq Loc.compare (List.map snd (C.Kset.decisions r.Net.trace)))
    in
    Format.printf "distinct values: %d (k = %d)@." distinct k;
    print_verdict "k-set spec:" (C.Kset.check ~n ~k r.Net.trace);
    (match C.Kset.check ~n ~k r.Net.trace with Verdict.Violated _ -> 1 | _ -> 0)
  in
  let term = Term.(const run $ n_crash_k_arg $ seed_arg $ steps_arg) in
  Cmd.v (Cmd.info "kset" ~doc:"Run k-set agreement over Psi_k.") term

(* --- sweep subcommand --- *)

let sweep_cmd =
  let fd_arg =
    Arg.(value & opt fd_conv P_fd & info [ "fd" ] ~docv:"FD" ~doc:"Detector: omega, p, or evp.")
  in
  let seeds_arg =
    Arg.(
      value & opt positive_int 8
      & info [ "seeds" ] ~docv:"N" ~doc:"Seeded runs per fault pattern.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "jobs" ] ~docv:"J" ~doc:"Domains to run on (default: all cores).")
  in
  let root_arg =
    Arg.(
      value & opt int 1
      & info [ "root-seed" ] ~docv:"SEED" ~doc:"Root of the per-cell seed derivation.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write the BENCH.json report to $(i,PATH).")
  in
  let run which (n, crash_at) steps seeds jobs root json =
    let mk name detector spec =
      R.Matrix.entry
        ~id:("sweep." ^ name)
        ~section:"seed sweep"
        ~label:(Printf.sprintf "%s n=%d steps=%d" name n steps)
        ~seeds ~faults:[ crash_at ]
        (fun ~seed ~faults ->
          let t =
            Afd_automata.generate_trace ~detector:(detector ()) ~n ~seed
              ~crash_at:faults ~steps
          in
          R.Metrics.outcome ~steps:(List.length t) (Afd.check spec ~n t))
    in
    let entry =
      match which with
      | Omega_fd -> mk "omega" (fun () -> Afd_automata.fd_omega ~n) Omega.spec
      | P_fd -> mk "p" (fun () -> Afd_automata.fd_perfect ~n) Perfect.spec
      | Evp_noisy_fd ->
        let noise () =
          Afd_automata.noise_of_list
            (List.map (fun i -> (i, Loc.Set.singleton ((i + 1) mod n))) (Loc.universe ~n))
        in
        mk "evp"
          (fun () -> Afd_automata.fd_ev_perfect_noisy ~n ~noise:(noise ()))
          Ev_perfect.spec
    in
    let jobs = if jobs <= 0 then Domain.recommended_domain_count () else jobs in
    let r =
      R.Engine.run { R.Engine.jobs; root_seed = root; seeds_override = None } [ entry ]
    in
    Format.printf "%a@." R.Engine.pp r;
    (match json with Some path -> R.Report.write ~path r | None -> ());
    if List.exists (fun e -> (R.Metrics.exp_counts e).R.Metrics.violated > 0) r.R.Engine.exps
    then 1
    else 0
  in
  let term =
    Term.(
      const run $ fd_arg $ n_crash_arg $ steps_arg $ seeds_arg $ jobs_arg $ root_arg
      $ json_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Run a detector over many derived seeds in parallel and tally verdicts.")
    term

(* --- check subcommand --- *)

let check_cmd =
  let seeds_arg =
    Arg.(value & opt positive_int 3 & info [ "seeds" ] ~docv:"N" ~doc:"Seeded runs per subject.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "jobs" ] ~docv:"J" ~doc:"Domains to run on (default: all cores).")
  in
  let root_arg =
    Arg.(
      value & opt int 1
      & info [ "root-seed" ] ~docv:"SEED" ~doc:"Root of the per-cell seed derivation.")
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write the BENCH.json report (with per-clause verdicts and counterexample indices) to $(i,PATH).")
  in
  let window_arg =
    Arg.(
      value & opt int 16
      & info [ "window" ] ~docv:"W" ~doc:"Counterexample witness-window size (events of context kept around a violation).")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ] ~doc:"One seed per subject, sequential — the fast path wired into dune runtest.")
  in
  let run seeds jobs root json window smoke =
    let seeds = if smoke then 1 else seeds in
    let jobs =
      if smoke then 1 else if jobs <= 0 then Domain.recommended_domain_count () else jobs
    in
    let entries = Afd_bench.Check.matrix ~window ~seeds () in
    let r =
      R.Engine.run { R.Engine.jobs; root_seed = root; seeds_override = None } entries
    in
    Format.printf "%a@." R.Engine.pp r;
    (match json with Some path -> R.Report.write ~path r | None -> ());
    if
      List.exists
        (fun e -> (R.Metrics.exp_counts e).R.Metrics.violated > 0)
        r.R.Engine.exps
    then 1
    else 0
  in
  let term =
    Term.(
      const run $ seeds_arg $ jobs_arg $ root_arg $ json_arg $ window_arg $ smoke_arg)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the detector catalog's online property monitors against the offline \
          trace checks and report the differential verdict table (exit 1 on any \
          mismatch or unmet expectation).")
    term

(* --- trb subcommand --- *)

let trb_cmd =
  let sender_arg =
    Arg.(value & opt int 0 & info [ "sender" ] ~docv:"LOC" ~doc:"Broadcast sender.")
  in
  let value_arg =
    Arg.(value & opt bool true & info [ "value" ] ~docv:"BOOL" ~doc:"Broadcast value.")
  in
  let n_crash_sender_arg =
    let check (n, crash_at) sender =
      Result.map (fun () -> (n, crash_at, sender)) (in_universe ~n ~what:"--sender" sender)
    in
    Term.(term_result' ~usage:true (const check $ n_crash_arg $ sender_arg))
  in
  let run (n, crash_at, sender) value seed steps =
    let crashable = crashable_of crash_at in
    let net = C.Trb.net ~n ~sender ~value ~crashable in
    let r = Net.run net ~seed ~crash_at ~steps in
    List.iter
      (fun (i, d) ->
        Format.printf "  %a delivered %s@." Loc.pp i
          (match d with C.Trb.Value v -> string_of_bool v | C.Trb.Sender_faulty -> "SF"))
      (C.Trb.deliveries r.Net.trace);
    print_verdict "TRB spec:" (C.Trb.check ~n ~sender r.Net.trace);
    (match C.Trb.check ~n ~sender r.Net.trace with Verdict.Violated _ -> 1 | _ -> 0)
  in
  let term = Term.(const run $ n_crash_sender_arg $ value_arg $ seed_arg $ steps_arg) in
  Cmd.v (Cmd.info "trb" ~doc:"Run terminating reliable broadcast over P.") term

(* --- churn subcommand --- *)

let churn_cmd =
  let module M = Afd_mega in
  let procs_arg =
    Arg.(
      value
      & opt (count_conv ~min:1 ~max:1_500_000 ~what:"a process count in 1..1500000") 10_000
      & info [ "procs" ] ~docv:"N" ~doc:"Initial universe size (up to ~10^6).")
  in
  let events_arg =
    Arg.(
      value & opt non_negative_int 1_000_000
      & info [ "events" ] ~docv:"E" ~doc:"Event budget: stop after this many calendar pops.")
  in
  let rate_conv =
    let parse s =
      match float_of_string_opt s with
      | Some r when Float.is_finite r && r >= 0. -> Ok r
      | _ -> Error (`Msg (Printf.sprintf "expected a finite non-negative rate, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_float)
  in
  let churn_rate_arg =
    Arg.(
      value & opt rate_conv 5.0
      & info [ "churn-rate" ] ~docv:"R"
          ~doc:
            "Churn actions (crash, recover, join, leave, link failure, partition) per \
             1000 processed events; 0 disables the adversary.")
  in
  let topology_conv =
    let parse s = Result.map_error (fun e -> `Msg e) (M.Topology.of_string s) in
    let print fmt t = Format.pp_print_string fmt (M.Topology.to_string t) in
    Arg.conv (parse, print)
  in
  let topology_arg =
    Arg.(
      value & opt topology_conv (M.Topology.Ring 2)
      & info [ "topology" ] ~docv:"T" ~doc:"Connection topology: full, ring, grid or hypercube.")
  in
  let detector_arg =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) M.Catalog.names)) "vcube"
      & info [ "detector" ] ~docv:"D"
          ~doc:
            (Printf.sprintf "Scalable detector to run: %s."
               (String.concat " or " M.Catalog.names)))
  in
  let json_arg =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Also write a BENCH.json report with the CN row to $(i,PATH).")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Fixed smoke matrix — 10^4 processes, 10^5 events, both catalog detectors — \
             the fast path wired into dune runtest and CI; exits nonzero on any failure.")
  in
  let report_row cfg =
    let r = M.Engine.run cfg in
    Format.printf "%a@." M.Engine.pp_report r;
    let outcome = Afd_bench.Churn_bench.outcome r in
    (match outcome.R.Metrics.verdict with
    | Verdict.Violated e -> Format.printf "  GATE FAILED: %s@." e
    | _ -> ());
    outcome
  in
  let passed o = Verdict.is_sat o.R.Metrics.verdict in
  let run procs events churn_rate topology detector seed json smoke =
    if smoke then begin
      let ok =
        List.for_all
          (fun (det, topo) ->
            let cfg =
              M.Engine.cfg ~procs:10_000 ~events:100_000 ~churn_rate:5.0 ~topology:topo
                ~detector:det ~seed ()
            in
            Format.printf "-- smoke: %s on %s --@." det (M.Topology.to_string topo);
            passed (report_row cfg))
          [ ("hb-pc", M.Topology.Ring 2); ("vcube", M.Topology.Hypercube) ]
      in
      if ok then 0 else 1
    end
    else begin
      let cfg = M.Engine.cfg ~procs ~events ~churn_rate ~topology ~detector ~seed () in
      let outcome = report_row cfg in
      (match json with
      | Some path ->
        (* one CN row through the runner so the JSON shape matches the
           bench harness reports *)
        let entry =
          R.Matrix.entry ~id:"CN.cli" ~section:"CN  Churn simulation (afd_sim churn)"
            ~label:
              (Printf.sprintf "CN %s/%s procs=%d churn=%g" detector
                 (M.Topology.to_string topology) procs churn_rate)
            ~show:(R.Matrix.show_detail ~label:"CN churn run")
            (fun ~seed:_ ~faults:_ -> outcome)
        in
        let rep =
          R.Engine.run { R.Engine.jobs = 1; root_seed = seed; seeds_override = None } [ entry ]
        in
        R.Report.write ~path rep
      | None -> ());
      if passed outcome then 0 else 1
    end
  in
  let term =
    Term.(
      const run $ procs_arg $ events_arg $ churn_rate_arg $ topology_arg $ detector_arg
      $ seed_arg $ json_arg $ smoke_arg)
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Run the discrete-event mega engine: a universe of up to ~10^6 processes under \
          a seeded churn adversary, with a scalable detector and a sampled online \
          property monitor.  Prints throughput, detection-latency and false-suspicion \
          percentiles; exits nonzero if the monitor latched a violation or injected \
          faults went undetected.")
    term

let () =
  let doc = "Asynchronous failure detectors: simulator and experiment driver." in
  let info = Cmd.info "afd_sim" ~version:"1.0.0" ~doc in
  (* no subcommand (or --help) prints the full manual enumerating every
     subcommand, rather than a bare usage error *)
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ detector_cmd; consensus_cmd; selfimpl_cmd; tree_cmd; kset_cmd; trb_cmd;
            sweep_cmd; check_cmd; churn_cmd ]))
