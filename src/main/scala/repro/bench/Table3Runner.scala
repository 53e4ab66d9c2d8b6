package repro.bench

import org.apache.spark.sql.SparkSession
import repro.OracleTyped
import repro.engines.EngineSim
import repro.handopt.{HandOptMode, HandOptimized}
import repro.tensor.{CpuDevice, ExecCtx, Profile}
import repro.tpch.{TpchEnv, TpchQueries}

/** Table 3: hand-optimized tensor programs for Q1/Q6/Q9/Q14 vs the best
  * baseline, on CPU (1 core), CPU (6 cores) and GPU (simulated). As in the
  * paper, the best CPU baseline is DuckDB (at matching thread count) and
  * the GPU baseline is the better of the two simulated GPU databases; TVM
  * supports only Q6 and Q14.
  */
object Table3Runner {

  final case class Cell(torch: Option[Double], jit: Option[Double], tvm: Option[Double])
  final case class Row(query: String,
                       cpu1Baseline: Double, cpu1: Cell,
                       cpu6Baseline: Double, cpu6: Cell,
                       gpuBaseline: Option[Double], gpu: Cell)

  val Queries = Seq("Q1", "Q6", "Q9", "Q14")

  def run(spark: SparkSession, sf: Double): Seq[Row] = {
    val tqp = TpchEnv.session(spark, sf)
    val oracleTabs = TpchEnv.oracleTables(tqp)
    val queries = TpchQueries.all(sf).toMap
    val dev6 = new CpuDevice(6)

    try Queries.map { name =>
      val sql  = queries(name)
      val tabs = oracleTabs.filter { case (n, _) => sql.toLowerCase.contains(n) }

      OracleTyped.execute("PRAGMA threads=1")
      val duck1 = Measure.medianMs { OracleTyped.query(sql, tabs: _*) }
      OracleTyped.execute("PRAGMA threads=6")
      val duck6 = Measure.medianMs { OracleTyped.query(sql, tabs: _*) }
      OracleTyped.execute("PRAGMA threads=1")

      def hand(mode: HandOptMode, dev: CpuDevice): Option[Double] =
        if (!HandOptimized.supported(name, mode)) None
        else Some(Measure.medianMs { ExecCtx.withDevice(dev) { HandOptimized.run(name, tqp, mode) } })

      def handGpu(mode: HandOptMode): Option[Double] =
        if (!HandOptimized.supported(name, mode)) None
        else {
          val p = new Profile
          ExecCtx.withProfile(p) { HandOptimized.run(name, tqp, mode) }
          Some(repro.tensor.DeviceModel.P100.timeMs(p))
        }

      // GPU best baseline: better of the two simulated GPU databases on the
      // generic (non-hand-optimized) plan.
      val ir = tqp.compile(sql)
      val gpuBaseline: Option[Double] = Seq(
        EngineSim.simulatedMs(tqp, name, ir, EngineSim.omnisci),
        EngineSim.simulatedMs(tqp, name, ir, EngineSim.blazing)
      ).flatten.reduceOption((a, b) => math.min(a, b))

      Row(name,
        duck1, Cell(hand(HandOptMode.Torch, CpuDevice.single), hand(HandOptMode.Jit, CpuDevice.single), hand(HandOptMode.Tvm, CpuDevice.single)),
        duck6, Cell(hand(HandOptMode.Torch, dev6), hand(HandOptMode.Jit, dev6), hand(HandOptMode.Tvm, dev6)),
        gpuBaseline, Cell(handGpu(HandOptMode.Torch), handGpu(HandOptMode.Jit), handGpu(HandOptMode.Tvm)))
    } finally dev6.close()
  }

  def print(rows: Seq[Row], sf: Double): Unit =
    Measure.printTable(s"Table 3: hand-optimized plans (ms) at SF=$sf",
      Seq("Query", "CPU1 best-bl", "CPU1 Torch", "CPU1 JIT", "CPU1 TVM",
          "CPU6 best-bl", "CPU6 Torch", "CPU6 JIT", "CPU6 TVM",
          "GPU best-bl", "GPU Torch", "GPU JIT", "GPU TVM"),
      rows.map(r => Seq(r.query,
        Measure.fmt(Some(r.cpu1Baseline)), Measure.fmt(r.cpu1.torch), Measure.fmt(r.cpu1.jit), Measure.fmt(r.cpu1.tvm),
        Measure.fmt(Some(r.cpu6Baseline)), Measure.fmt(r.cpu6.torch), Measure.fmt(r.cpu6.jit), Measure.fmt(r.cpu6.tvm),
        Measure.fmt(r.gpuBaseline), Measure.fmt(r.gpu.torch), Measure.fmt(r.gpu.jit), Measure.fmt(r.gpu.tvm))))
}
