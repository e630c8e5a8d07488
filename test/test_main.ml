let () =
  Alcotest.run "relaxing_safely"
    [
      ("cimp", Test_cimp.suite);
      ("cimp-lang", Test_cimp_lang.suite);
      ("heap", Test_heap.suite);
      ("tso", Test_tso.suite);
      ("core", Test_core.suite);
      ("check", Test_check.suite);
      ("invariants", Test_invariants.suite);
      ("safety", Test_safety.suite);
      ("reduce", Test_reduce.suite);
      ("runtime", Test_runtime.suite);
      ("obs", Test_obs.suite);
      ("latency", Test_latency.suite);
      ("tracing", Test_tracing.suite);
      ("explain", Test_explain.suite);
      ("mutate", Test_mutate.suite);
      ("store", Test_store.suite);
      ("certify", Test_certify.suite);
      ("counts", Test_counts.suite);
    ]
