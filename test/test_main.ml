let () =
  Alcotest.run "aqualogic_sql2xq"
  @@ List.map (fun (name, cases) -> (name, List.map Helpers.guard cases))
    [ Test_atomic.suite;
      Test_xml.suite;
      Test_relational.suite;
      Test_sql_parser.suite;
      Test_xqeval.suite;
      Test_xquery_parser.suite;
      Test_dsp.suite;
      Test_translator.suite;
      Test_golden_paper.suite;
      Test_wrapper.suite;
      Test_engine.suite;
      Test_driver.suite;
      Test_callable.suite;
      Test_dsfile.suite;
      Test_compile.suite;
      Test_differential.suite;
      Test_optimize.suite;
      Test_telemetry.suite;
      Test_obs.suite;
      Test_resilience.suite;
      Test_scan_cache.suite;
      Test_vectorize.suite;
      Test_columnar.suite;
      Test_concurrency.suite;
      Test_plan_cache.suite;
      Test_net.suite;
      Test_notes_golden.suite;
      Test_src_memo.suite ]
