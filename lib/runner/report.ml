open Afd_core

(* --- JSON (hand-rolled; the repo deliberately has no JSON dependency) --- *)

let json_str = Afd_ioa.Json.string
let json_opt_int = function None -> "null" | Some i -> string_of_int i
let json_float f = Printf.sprintf "%.6f" f

let git_describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")
  with _ -> "unknown"

let verdict_fields v =
  match v with
  | Verdict.Sat -> (json_str "sat", "null")
  | Verdict.Undecided m -> (json_str "undecided", json_str m)
  | Verdict.Violated m -> (json_str "violated", json_str m)

let clause_to_json (name, v) =
  let status, reason = verdict_fields v in
  Printf.sprintf "{\"clause\":%s,\"verdict\":%s,\"reason\":%s}" (json_str name)
    status reason

let cell_to_json ~timings (c : Metrics.cell) =
  let status, reason = verdict_fields c.Metrics.outcome.Metrics.verdict in
  let base =
    Printf.sprintf
      "{\"seed_index\":%d,\"fault_index\":%d,\"scheduler_seed\":%d,\"verdict\":%s,\"reason\":%s,\"steps\":%d,\"quiescent\":%b,\"counterexample\":%s"
      c.Metrics.seed_index c.Metrics.fault_index c.Metrics.scheduler_seed status
      reason c.Metrics.outcome.Metrics.steps_fired
      c.Metrics.outcome.Metrics.quiescent
      (json_opt_int c.Metrics.outcome.Metrics.counterexample)
  in
  let base =
    match c.Metrics.outcome.Metrics.clauses with
    | [] -> base
    | cs ->
      base
      ^ Printf.sprintf ",\"clauses\":[%s]"
          (String.concat "," (List.map clause_to_json cs))
  in
  if timings then base ^ Printf.sprintf ",\"seconds\":%s}" (json_float c.Metrics.seconds)
  else base ^ "}"

let exp_to_json ~timings (e : Metrics.exp) =
  let counts = Metrics.exp_counts e in
  let base =
    Printf.sprintf
      "{\"id\":%s,\"section\":%s,\"label\":%s,\"cells\":%d,\"steps_fired\":%d,\"verdicts\":{\"sat\":%d,\"undecided\":%d,\"violated\":%d},\"rows\":[%s]"
      (json_str e.Metrics.id) (json_str e.Metrics.section)
      (json_str e.Metrics.label)
      (List.length e.Metrics.cells)
      (Metrics.exp_steps e) counts.Metrics.sat counts.Metrics.undecided
      counts.Metrics.violated
      (String.concat "," (List.map (cell_to_json ~timings) e.Metrics.cells))
  in
  if timings then
    base
    ^ Printf.sprintf ",\"wall_clock_s\":%s,\"transitions_per_sec\":%s}"
        (json_float (Metrics.exp_seconds e))
        (json_float (Metrics.transitions_per_sec e))
  else base ^ "}"

let to_json ?(timings = true) ?git (r : Engine.run) =
  let experiments =
    String.concat ",\n    " (List.map (exp_to_json ~timings) r.Engine.exps)
  in
  let header =
    Printf.sprintf "\"schema\":\"afd-bench/1\",\"root_seed\":%d,\"seeds_override\":%s"
      r.Engine.cfg.Engine.root_seed
      (json_opt_int r.Engine.cfg.Engine.seeds_override)
  in
  let header =
    if timings then
      let git = match git with Some g -> g | None -> git_describe () in
      let run_id =
        Printf.sprintf "%s-r%d-j%d" git r.Engine.cfg.Engine.root_seed
          r.Engine.cfg.Engine.jobs
      in
      header
      ^ Printf.sprintf
          ",\"run_id\":%s,\"git\":%s,\"jobs\":%d,\"cores\":%d,\"wall_clock_s\":%s,\"total_steps\":%d,\"aggregate_transitions_per_sec\":%s"
          (json_str run_id) (json_str git) r.Engine.cfg.Engine.jobs
          (Domain.recommended_domain_count ())
          (json_float r.Engine.wall_seconds)
          (Engine.total_steps r)
          (json_float (Engine.aggregate_transitions_per_sec r))
    else header
  in
  Printf.sprintf "{%s,\n  \"experiments\":[\n    %s\n  ]}\n" header experiments

let write ~path r =
  let oc = open_out path in
  output_string oc (to_json ~timings:true r);
  close_out oc
