let run ?(rules = Rules.all) ?max_states ?por ?symmetry items =
  let subjects =
    List.map
      (fun { Registry.origin; entry } ->
        Subject.make ?por ?max_states ?symmetry ~origin entry)
      items
  in
  let findings =
    List.concat_map
      (fun subj -> List.concat_map (fun r -> r.Rule.check subj) rules)
      subjects
  in
  (* collected after the rules ran, so only explorations some rule
     actually forced are reported *)
  let explorations = List.filter_map Subject.exploration subjects in
  Report.make ~rules_run:(List.length rules) ~subjects_checked:(List.length items)
    ~explorations findings

let run_entry ?rules ?symmetry ~origin entry =
  run ?rules ?symmetry [ { Registry.origin; entry } ]
