package repro.perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files

import org.apache.spark.sql.SparkSession
import repro.tensor.CpuDevice

import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal

/** The TQP benchmark: one workload, one closed-loop client, one JVM.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--commit <sha>]
  * }}}
  *
  * Inputs are generated from the seed and cached before any timing. The
  * workload is set up `setupRuns` times (median reported), warmed up with
  * passes of the same workload, then measured: passes run back to back,
  * each request sent only after the previous one returned, until
  * `--seconds` have passed and the pool supports a p90. With `--trace 1`, untraced and traced passes
  * alternate and the per-layer metrics are reported instead. After timing,
  * every kept result is checked against DuckDB. The last line of standard
  * output is the result JSON; the full run record goes to the work dir.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        workDir: File, commit: String)

  final case class Sample(kind: String, ms: Double, ok: Boolean)

  def parse(argv: Seq[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      w  <- need("workload")
      s  <- need("seed").flatMap(v => v.toLongOption.toRight(s"bad --seed $v"))
      t  <- need("seconds").flatMap(v => v.toDoubleOption.filter(_ > 0).toRight(s"bad --seconds $v"))
      tr <- need("trace").flatMap {
              case "0" => Right(false); case "1" => Right(true); case v => Left(s"bad --trace $v")
            }
      d  <- need("work-dir")
    } yield Args(w, s, t, tr, new File(d), kv.getOrElse("commit", "unknown"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv.toSeq) match {
      case Right(a) => a
      case Left(msg) => Console.err.println(msg); sys.exit(2)
    }
    val workload = Workloads.byName(args.workload).getOrElse {
      Console.err.println(s"unknown workload ${args.workload}; one of ${Workloads.names.mkString(", ")}")
      sys.exit(2)
    }
    args.workDir.mkdirs()
    val spark = SparkSession.builder()
      .master("local[2]") // fixed: TpchLite's rand() columns depend on the partition count
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "4")
      .config("spark.local.dir", new File(args.workDir, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(args.workDir, "warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val line =
      try run(spark, workload, args)
      finally spark.stop()
    Console.err.println(f"[perfbench] done at JVM uptime ${ManagementFactory.getRuntimeMXBean.getUptime / 1e3}%.1f s")
    println(line)
    Console.out.flush()
    sys.exit(0)
  }

  /** Run the workload; returns the result line. */
  def run(spark: SparkSession, w: Workload, args: Args): String = {
    val phases = scala.collection.mutable.LinkedHashMap[String, Double]()
    phases("jvm_start") = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    var mark = System.nanoTime()
    def phase(name: String): Unit = {
      val now = System.nanoTime()
      phases(name) = (now - mark) / 1e9
      mark = now
    }
    w.prepare(spark, args.seed, new File(args.workDir, "data"))
    phase("prepare")

    val setupS = ArrayBuffer[Double]()
    val heapMb = ArrayBuffer[Double]()
    val setupTraces = ArrayBuffer[Trace]()
    for (_ <- 0 until w.setupRuns) {
      w.release()
      System.gc()
      val tr = if (args.trace) Some(new Trace) else None
      val t0 = System.nanoTime()
      w.setup(tr)
      setupS += (System.nanoTime() - t0) / 1e9
      heapMb += usedHeapMb()
      tr.foreach(setupTraces += _)
    }

    phase("setup")
    val device = new CpuDevice(w.threads)
    val thrown = scala.collection.mutable.LinkedHashMap[String, String]()
    def pass(tr: Option[Trace]): Seq[Sample] = w.kinds.map { k =>
      tr.foreach(_.query = k)
      val t0 = System.nanoTime()
      val ok = try { w.request(k, device, tr); true } catch {
        case NonFatal(e) => thrown.getOrElseUpdate(k, s"${e.getClass.getSimpleName}: ${e.getMessage}"); false
      }
      Sample(k, (System.nanoTime() - t0) / 1e6, ok)
    }

    try {
      for (_ <- 0 until w.warmupPasses) pass(None)
      phase("warmup")

      val plain = ArrayBuffer[Sample]()
      val traced = ArrayBuffer[Sample]()
      val passTraces = ArrayBuffer[Trace]()
      val plainPassS = ArrayBuffer[Double]()
      val t0 = System.nanoTime()
      def elapsed = (System.nanoTime() - t0) / 1e9
      // Measure at least --seconds; past that, an untraced run keeps going
      // (up to twice as long) while its pool is too small for a p90 with 10
      // samples beyond it.
      def enough = elapsed >= args.seconds &&
        (args.trace || Stats.tailSupported(plain.length, 90) || elapsed >= 2 * args.seconds)
      while (plainPassS.isEmpty || (args.trace && passTraces.isEmpty) || !enough) {
        if (args.trace && plainPassS.length > passTraces.length) {
          val tr = new Trace
          traced ++= pass(Some(tr))
          passTraces += tr
        } else {
          val p0 = System.nanoTime()
          plain ++= pass(None)
          plainPassS += (System.nanoTime() - p0) / 1e9
        }
      }
      val wallS = elapsed
      phase("measure")

      val mismatched = w.check()
      phase("check")
      val failedKinds = thrown.keySet ++ mismatched.keySet
      val all = plain ++ traced
      val failed = all.count(s => !s.ok || failedKinds.contains(s.kind))
      val ok = plain.filter(_.ok).toSeq

      val endToEnd = latencyMetrics(ok) ++ Map(
        "setup_s" -> Stats.median(setupS.toSeq),
        "setup_heap_mb" -> Stats.median(heapMb.toSeq),
        "requests_per_s" -> plain.length / plainPassS.sum)
      val perLayer = if (args.trace) layerMetrics(setupTraces.toSeq, passTraces.toSeq, ok, traced.filter(_.ok).toSeq) else Map.empty[String, Double]
      val reported = if (args.trace) Catalog.perLayer else Catalog.endToEnd
      val values = if (args.trace) perLayer else endToEnd

      val n = ok.length
      val record = Map(
        "run" -> (w.record ++ Map(
          "seed" -> args.seed, "seconds" -> args.seconds, "trace" -> args.trace, "commit" -> args.commit,
          "nproc" -> Runtime.getRuntime.availableProcessors, "max_heap_mb" -> Runtime.getRuntime.maxMemory / 1048576.0,
          "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
          "spark" -> spark.version, "spark_master" -> spark.sparkContext.master,
          "closed_loop_clients" -> 1, "measured_passes" -> plainPassS.length, "measured_pass_s" -> plainPassS, "traced_passes" -> passTraces.length,
          "measured_wall_s" -> wallS, "phase_s" -> phases)),
        "samples" -> Map(
          "latency" -> n, "latency_p90_beyond" -> (if (n > 0) Stats.beyond(n, 90) else 0),
          "latency_p90_supported" -> (n > 0 && Stats.tailSupported(n, 90)),
          "per_kind" -> ok.groupBy(_.kind).view.mapValues(_.length).toMap,
          "setup" -> setupS.length),
        "attempted" -> all.length, "failed" -> failed,
        "error_rate" -> Stats.errorRate(failed, all.length),
        "failures" -> (thrown ++ mismatched),
        "end_to_end" -> endToEnd,
        "per_layer" -> perLayer,
        "setup_s_all" -> setupS, "setup_heap_mb_all" -> heapMb,
        "samples_ms" -> plain.grouped(w.kinds.length).map(_.map(x => x.kind -> x.ms).toMap).toSeq,
        "kind_median_ms" -> ok.groupBy(_.kind).view.mapValues(s => Stats.median(s.map(_.ms).toSeq)).toMap,
        "per_query_trace" -> passTraces.lastOption.map(_.byQuery).getOrElse(Map.empty),
        "setup_trace" -> setupTraces.lastOption.map(_.byQuery).getOrElse(Map.empty))
      val tag = s"${w.name}-seed${args.seed}-trace${if (args.trace) 1 else 0}"
      Files.write(new File(args.workDir, s"$tag.json").toPath, Json(record).getBytes(StandardCharsets.UTF_8))

      Console.err.println(s"[perfbench] $tag: ${plainPassS.length} measured passes, ${passTraces.length} traced, " +
        s"$failed/${all.length} failed ${(thrown ++ mismatched).keys.mkString(",")}")
      Json(Map(
        "correct" -> failedKinds.isEmpty,
        "attempted" -> all.length,
        "failed" -> failed,
        "metrics" -> reported.map(m => m.name -> Map("value" -> values.getOrElse(m.name, 0.0), "unit" -> m.unit)).toMap))
    } finally device.close()
  }

  /** Pooled p50 and p90, and the geomean of per-kind medians, in ms. */
  def latencyMetrics(ok: Seq[Sample]): Map[String, Double] =
    if (ok.isEmpty) Map.empty
    else Map(
      "latency_ms_p50" -> Stats.median(ok.map(_.ms)),
      "latency_ms_p90" -> Stats.percentile(ok.map(_.ms), 90),
      "latency_ms_geomean" -> Stats.geomeanOfMedians(ok.groupBy(_.kind).view.mapValues(_.map(_.ms)).toMap))

  /** Median over traced passes (or traced setups, for setup-only counters) of every per-layer value. */
  def layerMetrics(setups: Seq[Trace], passes: Seq[Trace], plain: Seq[Sample], traced: Seq[Sample]): Map[String, Double] = {
    val p = passes.map(_.metrics)
    val s = setups.map(_.metrics)
    def medianOf(ms: Seq[Map[String, Double]], k: String): Option[Double] =
      if (ms.exists(_.contains(k))) Some(Stats.median(ms.map(_.getOrElse(k, 0.0)))) else None
    val keys = (p ++ s).flatMap(_.keys).distinct
    val layers = keys.flatMap(k => medianOf(p, k).orElse(medianOf(s, k)).map(k -> _)).toMap
    val overhead =
      if (plain.isEmpty || traced.isEmpty) Map.empty
      else Map("trace.overhead_pct" -> (Stats.median(traced.map(_.ms)) / Stats.median(plain.map(_.ms)) - 1) * 100)
    layers ++ overhead
  }

  private def usedHeapMb(): Double = {
    System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory - rt.freeMemory) / 1048576.0
  }
}
