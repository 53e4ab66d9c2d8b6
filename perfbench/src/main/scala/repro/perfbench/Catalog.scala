package repro.perfbench

/** One reported metric: its name, unit, and which direction is better. */
final case class MetricDef(name: String, unit: String, better: String)

/** Every metric the benchmark reports. BENCHMARK.json at the repository root
  * lists the same names, units and directions (checked by CatalogSpec);
  * METRICS.md says which end-to-end metric each per-layer metric should move.
  */
object Catalog {

  /** Measured with tracing off (`--trace 0`). */
  val endToEnd: Seq[MetricDef] = Seq(
    MetricDef("setup_s", "s", "lower"),
    MetricDef("latency_ms_p50", "ms", "lower"),
    MetricDef("latency_ms_p90", "ms", "lower"),
    MetricDef("latency_ms_geomean", "ms", "lower"),
    MetricDef("requests_per_s", "1/s", "higher"),
    MetricDef("setup_heap_mb", "MiB", "lower"),
  )

  val operatorAliases: Seq[String] = Seq("scan", "filter", "project", "join", "aggregate", "sort", "limit")
  val joinKinds: Seq[String] = Seq("inner", "left_outer", "left_semi", "left_anti", "existence", "cross")
  /** Kernels whose bytes are reported one by one (the heaviest in the re-anchor probes). */
  val kernels: Seq[String] = Seq("indexSelect", "scatterAdd", "bucketize", "sort", "nonzero")
  val opClasses: Seq[String] = repro.tensor.OpClass.values.toSeq.map(_.toString)

  /** Measured in a traced run (`--trace 1`); summed over one pass of the workload. */
  val perLayer: Seq[MetricDef] = Seq(
    MetricDef("session.register_ms", "ms", "lower"),
    MetricDef("data.collect_ms", "ms", "lower"),
    MetricDef("data.from_rows_ms", "ms", "lower"),
    MetricDef("data.ingest_rows_per_s", "rows/s", "higher"),
    MetricDef("data.to_rows_ms", "ms", "lower"),
    MetricDef("data.table_mb", "MiB", "lower"),
    MetricDef("compile.catalyst_ms", "ms", "lower"),
    MetricDef("compile.frontend_ms", "ms", "lower"),
    MetricDef("compile.rules_ms", "ms", "lower"),
    MetricDef("compile.ir_ops", "count", "lower"),
    MetricDef("exec.plan_ms", "ms", "lower"),
    MetricDef("exec.subquery_ms", "ms", "lower"),
  ) ++ operatorAliases.flatMap { a =>
    Seq(MetricDef(s"exec.$a.self_ms", "ms", "lower"),
        MetricDef(s"exec.$a.calls", "count", "lower"),
        MetricDef(s"exec.$a.rows_out", "rows", "lower"))
  } ++ Seq(
    MetricDef("exec.filter.selectivity", "ratio", "lower"),
  ) ++ joinKinds.map(k => MetricDef(s"ops.join.$k.self_ms", "ms", "lower")) ++ Seq(
    MetricDef("tensor.ops", "count", "lower"),
    MetricDef("tensor.bytes", "bytes", "lower"),
  ) ++ opClasses.map(c => MetricDef(s"tensor.bytes.$c", "bytes", "lower")) ++
    kernels.map(k => MetricDef(s"tensor.kernel_bytes.$k", "bytes", "lower")) ++ Seq(
    MetricDef("jvm.gc_ms", "ms", "lower"),
    MetricDef("jvm.alloc_mb", "MiB", "lower"),
    MetricDef("trace.overhead_pct", "%", "lower"),
  )
}
