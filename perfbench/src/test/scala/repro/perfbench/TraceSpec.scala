package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.TpchLite
import repro.core.TqpSession
import repro.core.data.TensorTable
import repro.core.exec.TqpConfig
import repro.tensor.CpuDevice
import repro.tpch.TpchQueries

class TraceSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder()
    .master("local[2]").appName("perfbench-test")
    .config("spark.ui.enabled", "false").config("spark.driver.host", "127.0.0.1")
    .config("spark.sql.shuffle.partitions", "4")
    .getOrCreate()

  private lazy val tqp = {
    val s = new TqpSession(spark)
    TpchLite.all(spark, 0.01, 3).toSeq.sortBy(_._1).foreach { case (n, df) => s.register(n, df) }
    s
  }

  private val cfg = TqpConfig.interpreted
  private val device = CpuDevice.single

  override def afterAll(): Unit = spark.stop()

  private def traced(sql: String): (Trace, TensorTable) = {
    val tr = new Trace
    val t = Workloads.query(tqp, sql, cfg, device, Some(tr))
    (tr, t)
  }

  private def nanos[A](body: => A): Double = {
    val t0 = System.nanoTime(); body; (System.nanoTime() - t0) / 1e6
  }

  test("traced execution returns what TqpSession.runOn returns, subqueries included") {
    for (sql <- Seq(TpchQueries.q1, TpchQueries.q11(0.01), TpchQueries.q15, TpchQueries.q21, TpchQueries.q22)) {
      val plain = TensorTable.toRows(tqp.runOn(tqp.compile(sql), cfg, device))
      val (tr, t) = traced(sql)
      assert(TensorTable.toRows(t) == plain)
      assert(tr.totals("tensor.ops") > 0, "kernels are recorded")
    }
  }

  test("per-operator self times add up to the query's execute time, within the trace overhead") {
    val sql = TpchQueries.q3
    (0 until 5).foreach(_ => traced(sql)) // warm up
    val runs = (0 until 7).map(_ => traced(sql)._1.totals)
    val plainMs = Stats.median((0 until 7).map(_ => nanos(Workloads.query(tqp, sql, cfg, device, None))))
    val tracedMs = Stats.median((0 until 7).map(_ => nanos(traced(sql))))
    val overheadMs = math.max(0.0, tracedMs - plainMs)
    val r = runs.minBy(_("exec.execute_ms"))
    val selfMs = Catalog.operatorAliases.map(a => r.getOrElse(s"exec.$a.self_ms", 0.0)).sum
    val execMs = r("exec.execute_ms")
    assert(selfMs <= execMs)
    assert(execMs - selfMs <= overheadMs + math.max(1.0, 0.05 * execMs),
      s"self $selfMs ms vs execute $execMs ms, trace overhead $overheadMs ms")
    val joins = Catalog.joinKinds.map(k => r.getOrElse(s"ops.join.$k.self_ms", 0.0)).sum
    assert(math.abs(joins - r("exec.join.self_ms")) < 1e-9, "join kinds split the join self time")
  }

  test("register is traced layer by layer") {
    val tr = new Trace
    val s = new TqpSession(spark)
    Workloads.register(s, "region", TpchLite.region(spark), Some(tr))
    val m = tr.metrics
    assert(m("data.rows") == TpchLite.RegionCount)
    assert(m("data.table_mb") > 0 && m("data.ingest_rows_per_s") > 0)
    assert(Seq("data.collect_ms", "data.from_rows_ms", "session.register_ms").forall(m(_) > 0))
  }
}
