type severity = Error | Warning | Info

let pp_severity fmt (s : severity) =
  Format.pp_print_string fmt
    (match s with Error -> "error" | Warning -> "warning" | Info -> "info")

let severity_rank (s : severity) =
  match s with Error -> 2 | Warning -> 1 | Info -> 0

type subject = {
  name : string;
  origin : string;
  component : string option;
  task : string option;
  state : int option;
}

let subject ?component ?task ?state ~origin name =
  { name; origin; component; task; state }

type finding = {
  rule : string;
  severity : severity;
  where : subject;
  message : string;
}

type exploration = {
  explored : string;
  exp_origin : string;
  states : int;
  transitions : int;
  verdict : string;
  exhaustive : bool;
  por : bool;
  slept : int;
}

type t = {
  findings : finding list;
  rules_run : int;
  subjects_checked : int;
  explorations : exploration list;
}

let compare_finding f1 f2 =
  match compare (severity_rank f2.severity) (severity_rank f1.severity) with
  | 0 -> (
    match String.compare f1.where.name f2.where.name with
    | 0 -> String.compare f1.rule f2.rule
    | c -> c)
  | c -> c

let make ?(explorations = []) ~rules_run ~subjects_checked findings =
  { findings = List.stable_sort compare_finding findings;
    rules_run;
    subjects_checked;
    explorations;
  }

let errors t = List.filter (fun f -> f.severity = Error) t.findings
let warnings t = List.filter (fun f -> f.severity = Warning) t.findings
let has_errors t = errors t <> []
let truncated t = List.filter (fun e -> not e.exhaustive) t.explorations

(* The CLI exit-code contract, kept pure so the tests can pin it:
   1 (rule/gate failures) dominates 2 (strict truncation) — a report
   that is both wrong and sampled is first of all wrong. *)
let exit_code ?(strict = false) ?(mc_fail = false) ?(mc_truncated = false) t =
  if has_errors t || mc_fail || (strict && warnings t <> []) then 1
  else if strict && (truncated t <> [] || mc_truncated) then 2
  else 0

let pp_where fmt w =
  Fmt.pf fmt "%s(%s)" w.name w.origin;
  Option.iter (Fmt.pf fmt "/%s") w.component;
  Option.iter (Fmt.pf fmt " task:%s") w.task;
  Option.iter (Fmt.pf fmt " state:#%d") w.state

let pp_finding fmt f =
  Fmt.pf fmt "%a[%s] %a: %s" pp_severity f.severity f.rule pp_where f.where f.message

let pp fmt t =
  Fmt.pf fmt "lint: %d subject(s), %d rule(s), %d error(s), %d warning(s)"
    t.subjects_checked t.rules_run
    (List.length (errors t))
    (List.length (warnings t));
  (match
     List.partition (fun e -> e.exhaustive) t.explorations
   with
  | [], [] -> ()
  | ex, tr ->
    Fmt.pf fmt "; explored %d subject(s): %d exhausted, %d truncated"
      (List.length t.explorations) (List.length ex) (List.length tr));
  List.iter (fun f -> Fmt.pf fmt "@\n  %a" pp_finding f) t.findings

let pp_explorations fmt t =
  List.iter
    (fun e ->
      Fmt.pf fmt "%s(%s): %d states, %d transitions, %s%s@\n" e.explored e.exp_origin
        e.states e.transitions e.verdict
        (if e.por then Printf.sprintf " (por, slept %d)" e.slept else ""))
    t.explorations

(* --- JSON (hand-rolled; the repo deliberately has no JSON dependency) --- *)

let json_str = Afd_ioa.Json.string

let json_opt_str = function None -> "null" | Some s -> json_str s
let json_opt_int = function None -> "null" | Some i -> string_of_int i

let finding_to_json f =
  Printf.sprintf
    "{\"rule\":%s,\"severity\":%s,\"subject\":%s,\"origin\":%s,\"component\":%s,\"task\":%s,\"state\":%s,\"message\":%s}"
    (json_str f.rule)
    (json_str (Fmt.str "%a" pp_severity f.severity))
    (json_str f.where.name) (json_str f.where.origin)
    (json_opt_str f.where.component)
    (json_opt_str f.where.task)
    (json_opt_int f.where.state)
    (json_str f.message)

let exploration_to_json e =
  Printf.sprintf
    "{\"subject\":%s,\"origin\":%s,\"states\":%d,\"transitions\":%d,\"verdict\":%s,\"exhaustive\":%b,\"por\":%b,\"slept\":%d}"
    (json_str e.explored) (json_str e.exp_origin) e.states e.transitions
    (json_str e.verdict) e.exhaustive e.por e.slept

let to_json t =
  Printf.sprintf
    "{\"summary\":{\"subjects\":%d,\"rules\":%d,\"errors\":%d,\"warnings\":%d,\"explored\":%d,\"exhausted\":%d,\"truncated\":%d},\"explorations\":[%s],\"findings\":[%s]}"
    t.subjects_checked t.rules_run
    (List.length (errors t))
    (List.length (warnings t))
    (List.length t.explorations)
    (List.length (List.filter (fun e -> e.exhaustive) t.explorations))
    (List.length (truncated t))
    (String.concat "," (List.map exploration_to_json t.explorations))
    (String.concat "," (List.map finding_to_json t.findings))
