(* Test runner aggregating all suites.  `dune runtest` runs everything
   except `Slow` cases; `dune exec test/main.exe -- -e` includes them. *)

let () =
  Alcotest.run "afd"
    [ ("units", Test_units.suite);
      ("ioa", Test_ioa.suite);
      ("composition-theorems", Test_composition_theorems.suite);
      ("trace-ops", Test_trace_ops.suite);
      ("afd-specs", Test_afd_specs.suite);
      ("self-impl", Test_self_impl.suite);
      ("reductions", Test_reductions.suite);
      ("system", Test_system.suite);
      ("consensus", Test_consensus.suite);
      ("bounded", Test_bounded.suite);
      ("tree", Test_tree.suite);
      ("realistic-fd", Test_realistic.suite);
      ("trb", Test_trb.suite);
      ("participant", Test_participant.suite);
      ("catalog-wide", Test_catalog_wide.suite);
      ("random-faults", Test_random_faults.suite);
      ("sigma-omega", Test_synod_sigma.suite);
      ("channel-variants", Test_channel_variants.suite);
      ("k-set", Test_kset.suite);
      ("lint", Test_lint.suite);
      ("symm", Test_symm.suite);
      ("mc", Test_mc.suite);
      ("space", Test_space.suite);
      ("live", Test_live.suite);
      ("prop", Test_prop.suite);
      ("sched-fairness", Test_sched_fairness.suite);
      ("sched-stream", Test_sched_stream.suite);
      ("seed-derive", Test_seed_derive.suite);
      ("runner", Test_runner.suite);
      ("mega", Test_mega.suite);
      ("heartbeat-loss", Test_heartbeat_loss.suite);
      ("synod-pin", Test_synod_pin.suite);
      ("loc-set", Test_loc.suite);
    ]
