package repro.tpch

import repro.SparkSpec
import repro.bench.Measure
import repro.core.exec.TqpConfig
import repro.tensor.CpuDevice

/** Perf guard: the compiled (block-fused) mode must not be slower than the
  * interpreted mode on expression-heavy queries — the paper's TQPJ ≤ TQP
  * property (§6.1). Uses SF=0.05 to keep the suite quick but measurable.
  */
class TqpjPerfProbe extends SparkSpec {

  private val sf = 0.05

  test("TQPJ tracks or beats TQP on expression-heavy queries") {
    val tqp = TpchEnv.session(spark, sf)
    val queries = TpchQueries.all(sf).toMap
    val dev = CpuDevice.single
    // JIT warm-up: exercise both execution modes before any measurement so
    // the first measured query does not pay C2 compilation of the kernels.
    for (q <- Seq("Q6", "Q1"); cfg <- Seq(TqpConfig.interpreted, TqpConfig.compiledMode))
      tqp.runOn(tqp.compile(queries(q)), cfg, dev)
    for (name <- Seq("Q1", "Q6", "Q14", "Q19")) {
      val ir = tqp.compile(queries(name))
      // Both modes are timed in one alternating loop, so a drift in machine
      // speed or a JIT recompilation hits both alike.
      val (interp, fused) = Measure.alternatingMedianMs(
        tqp.runOn(ir, TqpConfig.interpreted, dev), tqp.runOn(ir, TqpConfig.compiledMode, dev))
      info(f"$name interp=$interp%.1f ms fused=$fused%.1f ms")
      assert(fused <= interp * 1.25, s"$name: fused $fused ms vs interp $interp ms")
    }
  }
}
