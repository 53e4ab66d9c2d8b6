package repro.bench

import org.apache.spark.sql.SparkSession
import repro.OracleTyped
import repro.core.exec.TqpConfig
import repro.engines.EngineSim
import repro.tensor.CpuDevice
import repro.tpch.{TpchEnv, TpchQueries}

/** Table 2: full TPC-H. CPU columns (Spark, DuckDB single-thread, TQP,
  * TQPJ) are measured wall-clock; GPU columns (BlazingSim, OmnisciSim,
  * TQP, TQPJ) are simulated device times from the executed op traces
  * (see DESIGN.md — no GPU in this container).
  */
object Table2Runner {

  final case class Row(query: String,
                       sparkMs: Option[Double], duckMs: Option[Double],
                       tqpMs: Option[Double], tqpjMs: Option[Double],
                       blazingMs: Option[Double], omnisciMs: Option[Double],
                       tqpGpuMs: Option[Double], tqpjGpuMs: Option[Double])

  def run(spark: SparkSession, sf: Double): Seq[Row] = {
    val tqp = TpchEnv.session(spark, sf)
    val oracleTabs = TpchEnv.oracleTables(tqp)
    // The paper caches Spark inputs in memory before timing.
    tqp.registeredTables.foreach { t => spark.table(t).cache().count() }
    OracleTyped.execute("PRAGMA threads=1")

    // JIT warm-up for the tensor engine: run a small and a large query in
    // both modes so the first measured query does not pay C2 compilation.
    val warmQs = Seq(TpchQueries.q6, TpchQueries.q1)
    for (q <- warmQs; cfg <- Seq(TqpConfig.interpreted, TqpConfig.compiledMode))
      tqp.runOn(tqp.compile(q), cfg, CpuDevice.single)

    TpchQueries.all(sf).map { case (name, sql) =>
      val tabs = oracleTabs.filter { case (n, _) => sql.toLowerCase.contains(n) }

      val sparkMs = Measure.medianMs { spark.sql(sql).collect() }
      val duckMs  = Measure.medianMs { OracleTyped.query(sql, tabs: _*) }

      val ir = tqp.compile(sql)
      val dev1 = CpuDevice.single
      def runTqp  = tqp.runOn(ir, TqpConfig.interpreted, dev1)
      def runTqpj = tqp.runOn(ir, TqpConfig.compiledMode, dev1)
      // TQP and TQPJ are timed in one alternating loop, so drift hits both.
      val (tqpMs, tqpjMs) =
        if (EngineSim.tqpjUnsupported(name)) (Measure.medianMs(runTqp), None)
        else { val (a, b) = Measure.alternatingMedianMs(runTqp, runTqpj); (a, Some(b)) }

      val blazing = EngineSim.simulatedMs(tqp, name, ir, EngineSim.blazing)
      val omnisci = EngineSim.simulatedMs(tqp, name, ir, EngineSim.omnisci)
      val tqpGpu  = EngineSim.simulatedMs(tqp, name, ir, EngineSim.tqpGpu)
      val tqpjGpu = EngineSim.simulatedMs(tqp, name, ir, EngineSim.tqpjGpu)

      Row(name, Some(sparkMs), Some(duckMs), Some(tqpMs), tqpjMs,
          blazing, omnisci, tqpGpu, tqpjGpu)
    }
  }

  def print(rows: Seq[Row], sf: Double): Unit =
    Measure.printTable(s"Table 2: TPC-H query time (ms) at SF=$sf " +
      "(CPU measured; GPU simulated)",
      Seq("Query", "Spark", "DuckDB(1t)", "TQP", "TQPJ",
          "BlazingSim", "OmnisciSim", "TQP-GPU", "TQPJ-GPU"),
      rows.map(r => Seq(r.query, Measure.fmt(r.sparkMs), Measure.fmt(r.duckMs),
        Measure.fmt(r.tqpMs), Measure.fmt(r.tqpjMs), Measure.fmt(r.blazingMs),
        Measure.fmt(r.omnisciMs), Measure.fmt(r.tqpGpuMs), Measure.fmt(r.tqpjGpuMs))))
}
