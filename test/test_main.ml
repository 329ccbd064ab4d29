let () =
  Alcotest.run "dsd"
    [
      ("util", Test_util.suite);
      ("graph", Test_graph.suite);
      ("io", Test_io.suite);
      ("flow", Test_flow.suite);
      ("flow-invariants", Test_flow_invariants.suite);
      ("flow-retarget", Test_retarget.suite);
      ("flow-warmstart", Test_warmstart.suite);
      ("clique", Test_clique.suite);
      ("pattern", Test_pattern.suite);
      ("core-decomp", Test_core_decomp.suite);
      ("flow-build", Test_flow_build.suite);
      ("exact", Test_exact.suite);
      ("approx", Test_approx.suite);
      ("differential", Test_differential.suite);
      ("approx-bounds", Test_bounds.suite);
      ("obs", Test_obs.suite);
      ("pds", Test_pds.suite);
      ("data", Test_data.suite);
      ("query", Test_query.suite);
      ("extensions", Test_extensions.suite);
      ("future-work", Test_future_work.suite);
      ("metamorphic", Test_metamorphic.suite);
      ("ld-decomposition", Test_ld.suite);
      ("directed", Test_directed.suite);
      ("serve", Test_serve.suite);
      ("incremental", Test_incremental.suite);
      ("topk", Test_topk.suite);
      ("hierarchy", Test_hierarchy.suite);
    ]
