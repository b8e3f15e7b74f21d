type 'o spec = {
  name : string;
  pp_out : 'o Fmt.t;
  prop : n:int -> 'o Afd_prop.Prop.t;
  perm_out : ((int -> int) -> 'o -> 'o) option;
}

let of_prop ?perm_out ~name ~pp_out prop = { name; pp_out; prop; perm_out }

let check spec ~n t = Afd_prop.Monitor.replay ~n (spec.prop ~n) t

let monitor ?window spec ~n = Afd_prop.Monitor.create ?window ~n (spec.prop ~n)

type closure_failure = {
  original : string;
  transformed : string;
  verdict : Verdict.t;
}

let fmt_trace spec t = Fmt.str "%a" (Fd_event.pp_trace spec.pp_out) t

let closure_check transform spec ~n ~rng ~trials t =
  if not (Verdict.is_sat (check spec ~n t)) then Ok ()
  else
    let rec go k =
      if k >= trials then Ok ()
      else
        let t' = transform rng t in
        match check spec ~n t' with
        | Verdict.Sat -> go (k + 1)
        | v ->
          Error { original = fmt_trace spec t; transformed = fmt_trace spec t'; verdict = v }
    in
    go 0

let check_closure_under_sampling spec = closure_check Trace_ops.gen_sampling spec
let check_closure_under_reordering spec = closure_check Trace_ops.gen_reordering spec

let check_all_properties spec ~n ~rng ~trials t =
  match check spec ~n t with
  | Verdict.Violated r -> Error (Printf.sprintf "%s: trace not accepted: %s" spec.name r)
  | Verdict.Undecided _ -> Ok () (* vacuous: prefix too short to test closure *)
  | Verdict.Sat -> (
    match Trace_ops.validity ~n t with
    | Verdict.Violated r -> Error (Printf.sprintf "%s: accepted trace violates validity: %s" spec.name r)
    | _ -> (
      match check_closure_under_sampling spec ~n ~rng ~trials t with
      | Error f ->
        Error
          (Printf.sprintf "%s: sampling closure failed: %s -> %s (%s)" spec.name
             f.original f.transformed (Fmt.str "%a" Verdict.pp f.verdict))
      | Ok () -> (
        match check_closure_under_reordering spec ~n ~rng ~trials t with
        | Error f ->
          Error
            (Printf.sprintf "%s: reordering closure failed: %s -> %s (%s)" spec.name
               f.original f.transformed (Fmt.str "%a" Verdict.pp f.verdict))
        | Ok () -> Ok ())))
