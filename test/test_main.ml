let () =
  Alcotest.run "yasksite"
    [ ("util", Test_util.suite);
      ("arch", Test_arch.suite);
      ("grid", Test_grid.suite);
      ("stencil", Test_stencil.suite);
      ("plan", Test_plan.suite);
      ("codegen", Test_codegen.suite);
      ("cse", Test_cse.suite);
      ("cachesim", Test_cachesim.suite);
      ("ecm", Test_ecm.suite);
      ("engine", Test_engine.suite);
      ("faults", Test_faults.suite);
      ("store", Test_store.suite);
      ("tuner", Test_tuner.suite);
      ("parallel", Test_parallel.suite);
      ("ode", Test_ode.suite);
      ("offsite", Test_offsite.suite);
      ("lint", Test_lint.suite);
      ("plan_lint", Test_plan_lint.suite);
      ("native_lint", Test_native_lint.suite);
      ("schedule", Test_schedule.suite);
      ("program", Test_program.suite);
      ("core", Test_core.suite) ]
