(* afd_lint: run the static well-formedness analysis over the full
   automaton catalog (see lib/analysis).  Exits nonzero when any
   error-severity finding survives; `dune runtest` runs this binary, so
   a malformed automaton fails tier-1.

   With --mc the graph rules (Rules.mc) join the run and every bench
   CHK subject is model-checked exhaustively: detector composed with
   the crash automaton, safety clauses verified on every reachable
   state and Stable (liveness) clauses proved by fair-cycle search
   over the product graph, or refuted with a replay-confirmed lasso
   (Afd_analysis.Mc).  The exit gate then also demands that all
   truthful subjects are proved — safety AND liveness — and every
   deliberately broken one yields a confirmed counterexample or lasso.

   With --symmetry the equivariance analyzer (Afd_analysis.Symm) runs
   over every subject: certified subjects explore orbit representatives
   instead of states, breaking subjects get a named witness (the
   symmetry rules report both), and with --mc each CHK subject is
   additionally re-verified under its declared quotient — the "mc"
   results and JSON stay byte-identical to a non-symmetry run, the
   quotiented runs land in their own SY table / "symmetry" JSON array,
   and certified subjects climb the parametric cutoff ladder.

   Exit codes (Report.exit_code): 0 clean; 1 on error findings, a
   failed MC/SY gate, or warnings under --strict; 2 when --strict and
   some exploration (lint or MC) was truncated at its state budget — a
   "proved" verdict computed under a budget is about a sample, and CI
   must not mistake it for an exhaustive one.  (Usage errors — unknown
   rule or fixture ids, --profile without the MC catalog — also exit 2,
   before any report exists.) *)

let usage =
  "afd_lint [--json] [--strict] [--rule ID]... [--fixture ID] [--list-rules] \
   [--catalog] [--mc] [--symmetry] [--max-states N] [--por on|off] [--profile]"

let () =
  let json = ref false in
  let strict = ref false in
  let list_rules = ref false in
  let list_catalog = ref false in
  let selected = ref [] in
  let fixture = ref None in
  let mc = ref false in
  let symmetry = ref false in
  let max_states = ref None in
  let por = ref false in
  let profile = ref false in
  let spec =
    [ ("--json", Arg.Set json, "emit the report as JSON on stdout");
      ( "--strict",
        Arg.Set strict,
        "exit nonzero on warnings and on truncated explorations as well as \
         errors" );
      ( "--rule",
        Arg.String (fun id -> selected := id :: !selected),
        "ID run only the named rule (repeatable)" );
      ( "--fixture",
        Arg.String (fun id -> fixture := Some id),
        "ID lint the named malformed fixture instead of the catalog \
         (demonstrates a nonzero exit; IDs are rule ids)" );
      ("--list-rules", Arg.Set list_rules, "print the rule set and exit");
      ("--catalog", Arg.Set list_catalog, "print the registered subjects and exit");
      ( "--mc",
        Arg.Set mc,
        "also run the graph rules and exhaustively model-check the bench \
         subjects' safety clauses" );
      ( "--symmetry",
        Arg.Set symmetry,
        "run the equivariance analyzer on every subject (certified subjects \
         explore orbit representatives; breaking ones get a named witness); \
         with --mc, also re-verify each CHK subject under its declared \
         quotient and climb the parametric cutoff ladder" );
      ( "--max-states",
        Arg.Int
          (fun n ->
            if n < 1 then raise (Arg.Bad "--max-states expects a positive count");
            max_states := Some n),
        "N override every exploration's state budget" );
      ( "--por",
        Arg.String
          (function
            | "on" -> por := true
            | "off" -> por := false
            | s -> raise (Arg.Bad ("--por expects on|off, got " ^ s))),
        "on|off sleep-set partial-order reduction for the explorations \
         (default off: shortest counterexamples)" );
      ( "--profile",
        Arg.Set profile,
        "with --mc (and no --fixture), report per-phase wall-clock timings \
         (explore / clause eval / lasso) on stderr and in the JSON outcome; a \
         usage error otherwise" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !profile && not (!mc && !fixture = None) then begin
    Fmt.epr
      "afd_lint: --profile times the MC catalog; it needs --mc without \
       --fixture@.";
    exit 2
  end;
  let open Afd_analysis in
  let rule_universe =
    Rules.all @ Rules.mc @ (if !symmetry then Rules.symmetry else [])
  in
  if !list_rules then begin
    List.iter
      (fun r ->
        Fmt.pr "%-24s %-7s §%-8s %s@." r.Rule.id
          (Fmt.str "%a" Report.pp_severity r.Rule.severity)
          r.Rule.paper r.Rule.doc)
      rule_universe;
    exit 0
  end;
  let items =
    match !fixture with
    | None -> Catalog.items ()
    | Some id -> (
      match Fixtures.find id with
      | Some entry -> [ { Registry.origin = "fixture"; entry } ]
      | None ->
        Fmt.epr "afd_lint: unknown fixture %s (fixture ids are rule ids)@." id;
        exit 2)
  in
  if !list_catalog then begin
    List.iter
      (fun { Registry.origin; entry } ->
        Fmt.pr "%-10s %s@." origin (Registry.entry_name entry))
      items;
    exit 0
  end;
  let rules =
    match !selected with
    | [] ->
      if !mc then rule_universe
      else Rules.all @ (if !symmetry then Rules.symmetry else [])
    | ids ->
      List.map
        (fun id ->
          match Rule.find rule_universe id with
          | Some r -> r
          | None ->
            Fmt.epr "afd_lint: unknown rule %s (try --list-rules)@." id;
            exit 2)
        (List.rev ids)
  in
  let report =
    Engine.run ~rules ?max_states:!max_states ~por:!por ~symmetry:!symmetry items
  in
  let mc_results =
    if !mc && !fixture = None then
      Afd_bench.Check.mc_all ?max_states:!max_states ~por:!por ~profile:!profile ()
    else []
  in
  let sy_results =
    if !mc && !symmetry && !fixture = None then
      Afd_bench.Check.sy_all ?max_states:!max_states ()
    else []
  in
  (* Per-phase timing breakdown on stderr, never stdout: the JSON and
     table outputs stay byte-comparable across profiled runs. *)
  if !profile then begin
    Fmt.epr "afd_lint: --profile phase timings (seconds)@.";
    List.iter
      (fun r ->
        let open Afd_bench.Check in
        Fmt.epr "  %-14s %s@." r.mc_id
          (String.concat ", "
             (List.map
                (fun (k, dt) -> Printf.sprintf "%s=%.4f" k dt)
                r.mc_profile)))
      mc_results
  end;
  (* Strict truncation gate: a budget-capped exploration turns every
     "proved" / "no finding" claim about that subject into a statement
     about a sample.  --strict refuses to bless those. *)
  let truncated_lint = Report.truncated report in
  let truncated_mc =
    List.filter (fun r -> not r.Afd_bench.Check.mc_exhaustive) mc_results
  in
  let strict_truncated =
    !strict && (truncated_lint <> [] || truncated_mc <> [])
  in
  if !json then begin
    if not !mc then print_endline (Report.to_json report)
    else begin
      let rows =
        List.map
          (fun r ->
            Printf.sprintf
              "{\"subject\": %s, \"expect_violated\": %b, \"ok\": %b, \
               \"outcome\": %s}"
              (Afd_ioa.Json.string r.Afd_bench.Check.mc_id)
              r.Afd_bench.Check.mc_expect_violated r.Afd_bench.Check.mc_ok
              r.Afd_bench.Check.mc_json)
          mc_results
      in
      (* the "mc" array is byte-identical with and without --symmetry;
         quotiented runs land in their own "symmetry" array *)
      let sy_field =
        if sy_results = [] then ""
        else
          Printf.sprintf ", \"symmetry\": [%s]"
            (String.concat ", "
               (List.map
                  (fun r ->
                    Printf.sprintf
                      "{\"subject\": %s, \"ok\": %b, \"outcome\": %s}"
                      (Afd_ioa.Json.string r.Afd_bench.Check.sy_id)
                      r.Afd_bench.Check.sy_ok r.Afd_bench.Check.sy_json)
                  sy_results))
      in
      Printf.printf
        "{\"lint\": %s, \"mc\": [%s]%s, \"strict\": %b, \"strict_truncated\": \
         %b, \"truncated_explorations\": %d}\n"
        (Report.to_json report)
        (String.concat ", " rows)
        sy_field !strict strict_truncated
        (List.length truncated_lint + List.length truncated_mc)
    end
  end
  else begin
    Fmt.pr "%a@." Report.pp report;
    if mc_results <> [] then begin
      Fmt.pr
        "@.MC  exhaustive safety + liveness check (detector + crash \
         automaton)@.";
      List.iter
        (fun r ->
          let open Afd_bench.Check in
          let status =
            if not r.mc_ok then "FAIL"
            else if r.mc_expect_violated then "violated (expected)"
            else "proved"
          in
          Fmt.pr "  %-14s %-28s %-20s %5d states %6d transitions  %s@." r.mc_id
            r.mc_label r.mc_verdict r.mc_states r.mc_transitions status;
          if r.mc_liveness_proved <> [] then
            Fmt.pr "    liveness proved: %s@."
              (String.concat ", " r.mc_liveness_proved);
          if r.mc_liveness_skipped <> [] then
            Fmt.pr "    liveness SKIPPED: %s@."
              (String.concat ", " r.mc_liveness_skipped);
          List.iter
            (fun v ->
              Fmt.pr "    %s %s depth %d index %d%s: %s@." v.vkind v.clause
                v.depth v.index
                (if v.confirmed then " (replay-confirmed)" else " (UNCONFIRMED)")
                v.reason;
              if v.window <> [] then
                Fmt.pr "      window: %s@." (String.concat "; " v.window))
            r.mc_violations;
          List.iter
            (fun l ->
              Fmt.pr "    lasso/%s %s depth %d stem %d cycle %d%s: %s@."
                l.lkind l.lclause l.ldepth l.lstem l.lcycle
                (if l.lconfirmed then " (replay-confirmed)"
                 else " (UNCONFIRMED)")
                l.lreason)
            r.mc_lassos)
        mc_results
    end;
    if sy_results <> [] then begin
      Fmt.pr
        "@.SY  orbit reduction (equivariance certificates, cutoff ladders)@.";
      List.iter
        (fun r ->
          let open Afd_bench.Check in
          Fmt.pr "  %-14s %-28s %-10s %5d states (%d unreduced)  %s@." r.sy_id
            r.sy_label r.sy_status r.sy_states r.sy_raw_states
            (if r.sy_ok then "ok" else "FAIL");
          (match r.sy_status with
          | "certified" -> ()
          | _ -> Fmt.pr "    %s@." r.sy_detail);
          match r.sy_parametric with
          | None -> ()
          | Some p -> Fmt.pr "    %a@." Afd_analysis.Mc.pp_parametric p)
        sy_results
    end
  end;
  if strict_truncated then
    Fmt.epr
      "afd_lint: strict: %d exploration(s) truncated at the state budget — \
       every \"proved\" or absence verdict about them is sampled, not \
       exhaustive@."
      (List.length truncated_lint + List.length truncated_mc);
  let mc_fail =
    List.exists (fun r -> not r.Afd_bench.Check.mc_ok) mc_results
    || List.exists (fun r -> not r.Afd_bench.Check.sy_ok) sy_results
  in
  exit
    (Report.exit_code ~strict:!strict ~mc_fail
       ~mc_truncated:(truncated_mc <> []) report)
