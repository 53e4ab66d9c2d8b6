package repro.perfbench

import java.io.File
import java.util.concurrent.Executors

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.{OracleTyped, TpchLite}
import repro.core.TqpSession
import repro.core.data.TensorTable
import repro.core.exec.TqpConfig
import repro.core.ops.JoinAlgo
import repro.tensor.CpuDevice
import repro.tpch.TpchQueries

import scala.collection.mutable
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.control.NonFatal

/** One benchmark workload: how its inputs are made, how the first request
  * becomes servable, and the requests of one pass in their fixed order.
  */
trait Workload {
  def name: String
  def cfg: TqpConfig
  def threads: Int
  def warmupPasses: Int
  def setupRuns: Int

  /** Generate the inputs from the seed and cache them. Not timed. */
  def prepare(spark: SparkSession, seed: Long, dataDir: File): Unit
  /** Make the first request servable; timed as `setup_s`. */
  def setup(tr: Option[Trace]): Unit
  /** Drop what `setup` built, so the next setup starts from the same heap. */
  def release(): Unit
  /** Request kinds of one pass, always in this order. */
  def kinds: Seq[String]
  /** Serve one request and keep its result for `check`. */
  def request(kind: String, device: CpuDevice, tr: Option[Trace]): Unit
  /** Compare the kept results with DuckDB: failure message per request kind. */
  def check(): Map[String, String]

  def record: Map[String, Any] = Map(
    "workload" -> name, "sf" -> Workloads.SF, "device_threads" -> threads,
    "config" -> Map("compiled" -> cfg.compiled, "join_algo" -> cfg.joinAlgo.toString, "hash_agg" -> cfg.hashAgg),
    "warmup_passes" -> warmupPasses, "setup_runs" -> setupRuns)
}

object Workloads {
  val SF = 0.1

  def byName(name: String): Option[Workload] = name match {
    case "tpch-tqp"        => Some(new TpchWorkload(name, TqpConfig.interpreted, threads = 1))
    case "tpch-tqpj-hashagg" =>
      Some(new TpchWorkload(name, TqpConfig(compiled = true, joinAlgo = JoinAlgo.Sort, hashAgg = true), threads = 2))
    // Not in BENCHMARK.json: Auto's multiplicity rule flips Q18's join with the seed (METRICS.md).
    case "tpch-tqpj-hash"  =>
      Some(new TpchWorkload(name, TqpConfig(compiled = true, joinAlgo = JoinAlgo.Auto, hashAgg = true), threads = 2))
    case "lineitem-reload" => Some(new ReloadWorkload)
    case _                 => None
  }

  val names: Seq[String] = Seq("tpch-tqp", "tpch-tqpj-hashagg", "tpch-tqpj-hash", "lineitem-reload")

  /** Keeps the converted rows observable, so `toRows` cannot be optimised away. */
  private var sink = 0L

  /** Write `df` to Parquet at `dir` unless a completed write (Spark's
    * `_SUCCESS` marker) is already there: one seed always makes the same rows.
    */
  def writeOnce(df: DataFrame, dir: File): String = {
    if (!new File(dir, "_SUCCESS").exists) df.write.mode("overwrite").parquet(dir.getAbsolutePath)
    dir.getAbsolutePath
  }

  /** One SQL text in, rows out on the driver: compile + runOn + toRows. */
  def query(tqp: TqpSession, sql: String, cfg: TqpConfig, device: CpuDevice, tr: Option[Trace]): TensorTable =
    tr match {
      case None =>
        val t = tqp.runOn(tqp.compile(sql), cfg, device)
        sink += TensorTable.toRows(t).length
        t
      case Some(tr) => JvmCounters.measure(tr) {
        val t = Traced.execute(tqp, Traced.compile(tqp, sql, tr), cfg, device, tr)
        sink += tr.timed("data.to_rows_ms")(TensorTable.toRows(t)).length
        t
      }
    }

  def register(tqp: TqpSession, name: String, df: DataFrame, tr: Option[Trace]): Unit = tr match {
    case None     => tqp.register(name, df)
    case Some(tr) => JvmCounters.measure(tr)(Traced.register(tqp, name, df, tr))
  }

  /** Load DuckDB tables from the Parquet copies of the inputs. DuckDB runs
    * single-threaded, so its double sums, and Q15's equality on them, do
    * not depend on its thread schedule.
    */
  def loadOracle(tables: Seq[(String, String)]): Unit = {
    OracleTyped.execute("PRAGMA threads=1")
    tables.foreach { case (name, dir) =>
      OracleTyped.execute(s"CREATE OR REPLACE TABLE $name AS SELECT * FROM read_parquet('$dir/*.parquet')")
    }
  }

  /** DuckDB check of one kept result; the failure message, if any. */
  def oracle(spark: SparkSession, result: TensorTable, sql: String): Option[String] =
    try { OracleTyped.assertEquivalent(TensorTable.toDataFrame(spark, result), sql); None }
    catch { case NonFatal(e) => Some(s"${e.getClass.getSimpleName}: ${e.getMessage}".take(2000)) }
}

/** All 22 TPC-H queries, Q1…Q22 on every pass, over the eight registered tables. */
final class TpchWorkload(val name: String, val cfg: TqpConfig, val threads: Int) extends Workload {
  val warmupPasses = 5
  val setupRuns = 3

  private var spark: SparkSession = _
  private var inputs: Seq[(String, DataFrame)] = Nil
  private var parquet: Seq[(String, String)] = Nil
  private var tqp: TqpSession = _
  private val queries = TpchQueries.all(Workloads.SF).toMap
  private val results = mutable.LinkedHashMap[String, TensorTable]()

  /** Each table is generated into Parquet (once per seed and work dir),
    * then read back and cached: TQP registers the cached rows and the DuckDB
    * oracle reads the files. The eight tables are prepared concurrently;
    * Spark's job setup, not its two cores, is most of the cost.
    */
  def prepare(spark: SparkSession, seed: Long, dataDir: File): Unit = {
    this.spark = spark
    val pool = Executors.newFixedThreadPool(4)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutorService(pool)
    val tables = TpchLite.all(spark, Workloads.SF, seed).toSeq.sortBy(_._1).map { case (n, df) =>
      Future {
        val dir = Workloads.writeOnce(df, new File(dataDir, s"tpch-sf${Workloads.SF}-seed$seed/$n"))
        val cached = spark.read.parquet(dir).cache()
        cached.count()
        (n, dir, cached)
      }
    }
    val done = try Await.result(Future.sequence(tables), Duration.Inf) finally pool.shutdown()
    parquet = done.map { case (n, dir, _) => n -> dir }
    inputs = done.map { case (n, _, df) => n -> df }
  }

  def setup(tr: Option[Trace]): Unit = {
    tqp = new TqpSession(spark)
    inputs.foreach { case (n, df) => Workloads.register(tqp, n, df, tr) }
  }

  def release(): Unit = { tqp = null; results.clear() }

  val kinds: Seq[String] = TpchQueries.all(Workloads.SF).map(_._1)

  def request(kind: String, device: CpuDevice, tr: Option[Trace]): Unit =
    results(kind) = Workloads.query(tqp, queries(kind), cfg, device, tr)

  def check(): Map[String, String] = {
    Workloads.loadOracle(parquet)
    results.toSeq.flatMap { case (k, t) => Workloads.oracle(spark, t, queries(k)).map(k -> _) }.toMap
  }
}

/** Write beside read: each request is a fresh session that registers
  * `lineitem` from Parquet and then runs Q1 and Q6.
  */
final class ReloadWorkload extends Workload {
  val name = "lineitem-reload"
  val cfg: TqpConfig = TqpConfig.interpreted
  val threads = 1
  val warmupPasses = 2
  val setupRuns = 3

  private var spark: SparkSession = _
  private var path: String = _
  private var tqp: TqpSession = _
  private val queries = Seq("Q1" -> TpchQueries.q1, "Q6" -> TpchQueries.q6)
  private val results = mutable.LinkedHashMap[String, TensorTable]()

  def prepare(spark: SparkSession, seed: Long, dataDir: File): Unit = {
    this.spark = spark
    path = Workloads.writeOnce(TpchLite.lineitem(spark, Workloads.SF, seed),
      new File(dataDir, s"lineitem-sf${Workloads.SF}-seed$seed"))
  }

  private def load(tr: Option[Trace], label: String): Unit = {
    tr.foreach(_.query = label)
    tqp = new TqpSession(spark)
    Workloads.register(tqp, "lineitem", spark.read.parquet(path), tr)
  }

  def setup(tr: Option[Trace]): Unit = load(tr, "setup")

  def release(): Unit = { tqp = null; results.clear() }

  val kinds: Seq[String] = Seq("reload")

  def request(kind: String, device: CpuDevice, tr: Option[Trace]): Unit = {
    load(tr, s"$kind/register")
    queries.foreach { case (q, sql) =>
      tr.foreach(_.query = s"$kind/$q")
      results(q) = Workloads.query(tqp, sql, cfg, device, tr)
    }
  }

  def check(): Map[String, String] = {
    Workloads.loadOracle(Seq("lineitem" -> path))
    val bad = results.toSeq.flatMap { case (q, t) => Workloads.oracle(spark, t, queries.toMap.apply(q)).map(q + ": " + _) }
    if (bad.isEmpty) Map.empty else Map("reload" -> bad.mkString("; "))
  }
}
