let () =
  Alcotest.run "salamander"
    [
      ("sim", Test_sim.suite);
      ("rng_reference", Test_rng_reference.suite);
      ("parallel", Test_parallel.suite);
      ("telemetry", Test_telemetry.suite);
      ("monitor", Test_monitor.suite);
      ("render", Test_render.suite);
      ("obs", Test_obs.suite);
      ("ecc", Test_ecc.suite);
      ("flash", Test_flash.suite);
      ("ftl", Test_ftl.suite);
      ("faults", Test_faults.suite);
      ("core", Test_core.suite);
      ("difs", Test_difs.suite);
      ("workload", Test_workload.suite);
      ("traffic", Test_traffic.suite);
      ("sustain", Test_sustain.suite);
      ("experiments", Test_experiments.suite);
      ("bulk_aging", Test_bulk_aging.suite);
    ]
