(* Aggregated alcotest entry point for the whole PolyUFC test suite. *)

let () =
  Alcotest.run "polyufc"
    [
      ("linalg", Test_linalg.tests);
      ("presburger", Test_presburger.tests);
      ("count", Test_count.tests);
      ("poly_ir", Test_poly_ir.tests);
      ("tiling", Test_tiling.tests);
      ("polylang", Test_polylang.tests);
      ("hwsim", Test_hwsim.tests);
      ("hwsim_multi", Test_hwsim_multi.tests);
      ("cache_model", Test_cache_model.tests);
      ("cm_oracle", Test_cm_oracle.tests);
      ("sim_oracle", Test_sim_oracle.tests);
      ("interp_oracle", Test_interp_oracle.tests);
      ("roofline", Test_roofline.tests);
      ("perfmodel", Test_perfmodel.tests);
      ("core", Test_core.tests);
      ("claims", Test_claims.tests);
      ("mlir_lite", Test_mlir_lite.tests);
      ("workloads", Test_workloads.tests);
      ("telemetry", Test_telemetry.tests);
      ("engine", Test_engine.tests);
      ("store", Test_store.tests);
      ("govern", Test_govern.tests);
      ("fault", Test_fault.tests);
      ("observability", Test_observability.tests);
      ("serve", Test_serve.tests);
      ("pipeline", Test_pipeline.tests);
    ]
