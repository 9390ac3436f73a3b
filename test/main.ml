let () =
  Alcotest.run "tabv"
    [ Test_expr.suite;
      Test_ltl.suite;
      Test_parser.suite;
      Test_nnf.suite;
      Test_semantics.suite;
      Test_simple_subset.suite;
      Test_push_ahead.suite;
      Test_next_substitution.suite;
      Test_signal_abstraction.suite;
      Test_methodology.suite;
      Test_kernel.suite;
      Test_signal_clock.suite;
      Test_progression.suite;
      Test_interned.suite;
      Test_des.suite;
      Test_colorconv.suite;
      Test_duv_models.suite;
      Test_fault_injection.suite;
      Test_grid_wrapper.suite;
      Test_monitor.suite;
      Test_misc.suite;
      Test_prop_files.suite;
      Test_paper_artifacts.suite;
      Test_memctrl.suite;
      Test_automaton.suite;
      Test_exhaustive.suite;
      Test_vcd_replay.suite;
      Test_sere.suite;
      Test_sim_extra.suite;
      Test_robustness.suite;
      Test_multiclock.suite;
      Test_obs.suite;
      Test_engine.suite;
      Test_campaign.suite;
      Test_trace.suite;
      Test_serve.suite;
      Test_durability.suite ]
