package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.types.StructType
import repro.core.TqpSession
import repro.core.compile.{CatalystFrontend, CompiledIR, Rules}
import repro.core.data.{Column, DType, TensorTable}
import repro.core.exec.{ExecNode, Executor, Planner, TqpConfig}
import repro.core.expr.ExecEnv
import repro.core.ir.{IROp, JoinKind}
import repro.tensor.{CpuDevice, ExecCtx, Profile}

import scala.collection.mutable

/** Per-layer counters of one traced pass (or one traced setup).
  *
  * Every value is a sum over the pass; `byQuery` keeps the same sums split
  * by request kind, so a change can be quoted per query and per operator.
  */
final class Trace {
  val totals: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  val byQuery: mutable.LinkedHashMap[String, mutable.LinkedHashMap[String, Double]] = mutable.LinkedHashMap.empty
  var query: String = "setup"

  def add(key: String, v: Double): Unit = {
    totals(key) = totals.getOrElse(key, 0.0) + v
    val q = byQuery.getOrElseUpdate(query, mutable.LinkedHashMap.empty)
    q(key) = q.getOrElse(key, 0.0) + v
  }

  def timed[A](key: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally add(key, (System.nanoTime() - t0) / 1e6)
  }

  /** Totals plus the ratios derived from them. */
  def metrics: Map[String, Double] = {
    val t = totals.toMap
    def ratio(num: String, den: String, scale: Double = 1.0): Option[Double] =
      for (n <- t.get(num); d <- t.get(den) if d > 0) yield n / d * scale
    t ++ ratio("data.rows", "session.register_ms", 1000.0).map("data.ingest_rows_per_s" -> _) ++
      ratio("exec.filter.rows_out", "exec.filter.rows_in").map("exec.filter.selectivity" -> _)
  }
}

/** The layers of TQP, called one by one through their public entry points
  * and timed from outside. `TqpSession.register/compile/runOn` do the same
  * work in one call each; the untraced benchmark path calls those instead.
  */
object Traced {

  private val MiB = 1024.0 * 1024.0

  /** `TqpSession.register`, with its data-layer steps repeated beside it:
    * Spark `collect` and `TensorTable.fromRows` are timed on their own first.
    */
  def register(tqp: TqpSession, name: String, df: DataFrame, tr: Trace): Unit = {
    val rows = tr.timed("data.collect_ms")(df.collect())
    val schema = StructType(df.schema.fields.map(_.copy(nullable = false)))
    tr.timed("data.from_rows_ms")(TensorTable.fromRows(schema, rows))
    tr.timed("session.register_ms")(tqp.register(name, df))
    tr.add("data.rows", rows.length)
    tr.add("data.table_mb", tableBytes(tqp.tensorTable(name)) / MiB)
  }

  /** Exact bytes of a table's tensors and validity masks. */
  def tableBytes(t: TensorTable): Long =
    t.columns.map(c => c.tensor.sizeBytes + c.validity.map(_.length.toLong).getOrElse(0L)).sum

  /** Column-set → registered table, as `TqpSession` resolves plan leaves. */
  def tableLookup(tqp: TqpSession): Seq[Attribute] => Option[String] = {
    val schemas = tqp.registeredTables.map(n => n -> tqp.tensorTable(n).columnNames.toSet)
    attrs => {
      val names = attrs.map(_.name).toSet
      schemas.collectFirst { case (t, cols) if cols == names => t }
    }
  }

  /** `TqpSession.compile`, split into Catalyst, the TQP frontend and the IR rules. */
  def compile(tqp: TqpSession, sql: String, tr: Trace): CompiledIR = {
    val lookup = tableLookup(tqp)
    val df = tr.timed("compile.catalyst_ms") {
      val d = tqp.spark.sql(sql)
      d.queryExecution.optimizedPlan
      d
    }
    val raw = tr.timed("compile.frontend_ms")(CatalystFrontend.compile(df, lookup))
    val ir = tr.timed("compile.rules_ms") {
      raw.copy(plan = Rules(raw.plan), subqueries = raw.subqueries.map { case (p, dt) => (Rules(p), dt) })
    }
    tr.add("compile.ir_ops", (ir.plan +: ir.subqueries.map(_._1)).map(countOps).sum.toDouble)
    ir
  }

  private def countOps(op: IROp): Int = 1 + op.children.map(countOps).sum

  /** `TqpSession.runOn` with every operator wrapped: the same steps as
    * `Executor.run` (scalar subqueries first, then the main plan), with a
    * kernel `Profile` installed on the executing thread.
    */
  def execute(tqp: TqpSession, ir: CompiledIR, cfg: TqpConfig, device: CpuDevice, tr: Trace): TensorTable = {
    val profile = new Profile
    val out = ExecCtx.withCtx(ExecCtx(device, Some(profile))) {
      var env = ExecEnv.empty
      ir.subqueries.foreach { case (sub, dt) =>
        val node = tr.timed("exec.plan_ms")(Planner.plan(sub, cfg, tqp.tensorTable))
        val t = tr.timed("exec.subquery_ms")(Executor.execute(wrap(sub, node, tr), env))
        env = ExecEnv(env.subqueryValues :+ scalarOf(t, dt))
      }
      val node = tr.timed("exec.plan_ms")(Planner.plan(ir.plan, cfg, tqp.tensorTable))
      val res = tr.timed("exec.execute_ms")(Executor.execute(wrap(ir.plan, node, tr), env))
      require(res.columns.length == ir.outputNames.length,
        s"output arity ${res.columns.length} != ${ir.outputNames.length}")
      TensorTable(res.columns.zip(ir.outputNames).map { case (c, n) => c.renamed(n) })
    }
    recordKernels(profile, tr)
    out
  }

  private def recordKernels(profile: Profile, tr: Trace): Unit = {
    val recs = profile.records
    tr.add("tensor.ops", recs.size.toDouble)
    tr.add("tensor.bytes", recs.map(_.bytes).sum.toDouble)
    recs.groupBy(_.cls).foreach { case (c, rs) => tr.add(s"tensor.bytes.$c", rs.map(_.bytes).sum.toDouble) }
    recs.groupBy(_.name).foreach { case (k, rs) =>
      if (Catalog.kernels.contains(k)) tr.add(s"tensor.kernel_bytes.$k", rs.map(_.bytes).sum.toDouble)
    }
  }

  /** Wrap each planned node so its `run` is timed. `Executor.execute`
    * evaluates children before calling `run`, so the time is self time.
    */
  private def wrap(op: IROp, node: ExecNode, tr: Trace): ExecNode = {
    require(op.children.length == node.children.length, s"plan shape differs at ${node.alias}")
    val kids = op.children.zip(node.children).map { case (o, n) => wrap(o, n, tr) }
    val joinKey = op match {
      case j: IROp.Join => Some(s"ops.join.${joinKindName(j.kind)}.self_ms")
      case _            => None
    }
    val prefix = s"exec.${node.alias}"
    ExecNode(node.alias, kids, (in, env) => {
      val t0 = System.nanoTime()
      val out = node.run(in, env)
      val ms = (System.nanoTime() - t0) / 1e6
      tr.add(s"$prefix.self_ms", ms)
      tr.add(s"$prefix.calls", 1)
      tr.add(s"$prefix.rows_in", in.map(_.numRows.toDouble).sum)
      tr.add(s"$prefix.rows_out", out.numRows)
      joinKey.foreach(tr.add(_, ms))
      out
    })
  }

  def joinKindName(k: JoinKind): String = k match {
    case JoinKind.Inner        => "inner"
    case JoinKind.LeftOuter    => "left_outer"
    case JoinKind.LeftSemi     => "left_semi"
    case JoinKind.LeftAnti     => "left_anti"
    case JoinKind.Cross        => "cross"
    case _: JoinKind.Existence => "existence"
  }

  /** The scalar a subquery's one-row result stands for, coerced as `Executor.run` does. */
  private def scalarOf(t: TensorTable, dt: DType): Any = {
    if (t.numRows == 0) return null
    require(t.numRows == 1, s"scalar subquery returned ${t.numRows} rows")
    val c: Column = t.columns.head
    if (!c.isValid(0)) null
    else {
      val raw: Any = c.dtype match {
        case DType.F64              => java.lang.Double.valueOf(c.f64.data(0))
        case DType.I64 | DType.Date => java.lang.Long.valueOf(c.i64.data(0))
        case DType.Bool             => java.lang.Boolean.valueOf(c.bool.data(0))
        case DType.Str              => c.str.rowString(0)
      }
      (dt, raw) match {
        case (DType.F64, l: java.lang.Long)   => java.lang.Double.valueOf(l.doubleValue)
        case (DType.I64, d: java.lang.Double) => java.lang.Long.valueOf(d.longValue)
        case _                                => raw
      }
    }
  }
}

/** JVM-wide counters read around a traced request. */
object JvmCounters {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans

  /** (GC milliseconds so far, bytes allocated so far by the live threads). */
  def snapshot(): (Long, Long) = {
    var gc = 0L
    gcs.forEach(b => gc += math.max(0L, b.getCollectionTime))
    val alloc = threads.getThreadAllocatedBytes(threads.getAllThreadIds).iterator.filter(_ > 0).sum
    (gc, alloc)
  }

  def measure[A](tr: Trace)(body: => A): A = {
    val (gc0, a0) = snapshot()
    try body finally {
      val (gc1, a1) = snapshot()
      tr.add("jvm.gc_ms", (gc1 - gc0).toDouble)
      tr.add("jvm.alloc_mb", math.max(0L, a1 - a0) / (1024.0 * 1024.0))
    }
  }
}
