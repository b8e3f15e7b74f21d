open Afd_core

(* --- JSON (hand-rolled; the repo deliberately has no JSON dependency) --- *)

let json_str = Afd_ioa.Json.string
let json_opt_int = function None -> "null" | Some i -> string_of_int i

let verdict_fields v =
  match v with
  | Verdict.Sat -> (json_str "sat", "null")
  | Verdict.Undecided m -> (json_str "undecided", json_str m)
  | Verdict.Violated m -> (json_str "violated", json_str m)

let clause_to_json (name, v) =
  let status, reason = verdict_fields v in
  Printf.sprintf "{\"clause\":%s,\"verdict\":%s,\"reason\":%s}" (json_str name)
    status reason

let cell_to_json (c : Metrics.cell) =
  let status, reason = verdict_fields c.Metrics.outcome.Metrics.verdict in
  let base =
    Printf.sprintf
      "{\"seed_index\":%d,\"fault_index\":%d,\"scheduler_seed\":%d,\"verdict\":%s,\"reason\":%s,\"steps\":%d,\"quiescent\":%b,\"counterexample\":%s"
      c.Metrics.seed_index c.Metrics.fault_index c.Metrics.scheduler_seed status
      reason c.Metrics.outcome.Metrics.steps_fired
      c.Metrics.outcome.Metrics.quiescent
      (json_opt_int c.Metrics.outcome.Metrics.counterexample)
  in
  match c.Metrics.outcome.Metrics.clauses with
  | [] -> base ^ "}"
  | cs ->
    base
    ^ Printf.sprintf ",\"clauses\":[%s]}"
        (String.concat "," (List.map clause_to_json cs))

let exp_to_json (e : Metrics.exp) =
  let counts = Metrics.exp_counts e in
  Printf.sprintf
    "{\"id\":%s,\"section\":%s,\"label\":%s,\"cells\":%d,\"steps_fired\":%d,\"verdicts\":{\"sat\":%d,\"undecided\":%d,\"violated\":%d},\"rows\":[%s]}"
    (json_str e.Metrics.id) (json_str e.Metrics.section)
    (json_str e.Metrics.label)
    (List.length e.Metrics.cells)
    (Metrics.exp_steps e) counts.Metrics.sat counts.Metrics.undecided
    counts.Metrics.violated
    (String.concat "," (List.map cell_to_json e.Metrics.cells))

let to_json (r : Engine.run) =
  Printf.sprintf
    "{\"schema\":\"afd-bench/1\",\"root_seed\":%d,\"seeds_override\":%s,\n  \"experiments\":[\n    %s\n  ]}\n"
    r.Engine.cfg.Engine.root_seed
    (json_opt_int r.Engine.cfg.Engine.seeds_override)
    (String.concat ",\n    " (List.map exp_to_json r.Engine.exps))

let write ~path r =
  let oc = open_out path in
  output_string oc (to_json r);
  close_out oc
