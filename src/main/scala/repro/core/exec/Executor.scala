package repro.core.exec

import repro.core.compile.CompiledIR
import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr.{ExecEnv, ExprBackend, ExprCompiler, ExprEval}
import repro.core.ir._
import repro.core.ops._

/** Execution configuration: the axes the paper evaluates.
  *
  * @param compiled interpreted PyTorch-style (false, "TQP") vs fused
  *                 TorchScript-style (true, "TQPJ") expression execution
  * @param joinAlgo sort-based (Algorithm 1) or hash-based (Algorithm 2) join
  * @param hashAgg  hash-based grouping instead of Algorithm 3's sort
  */
final case class TqpConfig(
    compiled: Boolean = false,
    joinAlgo: JoinAlgo = JoinAlgo.Sort,
    hashAgg: Boolean = false)

object TqpConfig {
  /** Interpreted TQP, paper defaults (sort join, sort aggregation). */
  val interpreted: TqpConfig = TqpConfig()
  /** Compiled TQPJ. */
  val compiledMode: TqpConfig = TqpConfig(compiled = true)
}

/** Planning Layer (§4.2.4): each IR operator is looked up and instantiated
  * as a tensor program over its children's output tables.
  */
final case class ExecNode(alias: String, children: Seq[ExecNode],
                          run: (Seq[TensorTable], ExecEnv) => TensorTable)

object Planner {

  def plan(op: IROp, cfg: TqpConfig, tables: String => TensorTable): ExecNode =
    build(op, cfg, if (cfg.compiled) ExprCompiler else ExprEval, tables)

  private def build(op: IROp, cfg: TqpConfig, exprs: ExprBackend,
                    tables: String => TensorTable): ExecNode = {
    val kids = op.children.map(build(_, cfg, exprs, tables))
    op match {
      case IROp.Scan(name, vars) =>
        ExecNode("scan", Nil, (_, _) => {
          val t = tables(name)
          TensorTable(vars.map(v => t.column(v.frontendName).renamed(v.id)))
        })

      case IROp.Filter(_, cond) =>
        ExecNode("filter", kids, (in, env) => in.head.select(exprs.evalMask(cond, in.head, env)))

      case IROp.Project(_, projections) =>
        ExecNode("project", kids, (in, env) =>
          TensorTable(projections.map { case (e, v) => exprs.evalToColumn(e, in.head, env, v.id) }.toVector))

      case j: IROp.Join =>
        ExecNode("join", kids, (in, env) =>
          JoinOp.execute(in.head, in(1), j.kind, j.leftKeys, j.rightKeys, j.residual, j.nullAware,
            cfg.joinAlgo, exprs, env, j.outVars.map(_.id)))

      case IROp.Aggregate(_, g, a, re) =>
        ExecNode("aggregate", kids, (in, env) =>
          AggregateOp.execute(in.head, g, a, re, exprs, cfg.hashAgg, env))

      case IROp.Sort(_, keys) =>
        ExecNode("sort", kids, (in, env) => SortOp.execute(in.head, keys, exprs, env))

      case IROp.Limit(_, n) =>
        ExecNode("limit", kids, (in, _) => in.head.limit(n))
    }
  }
}

/** Execution Layer (§4.2.5): runs the operator plan in topological order,
  * wiring each operator's output tensors into its consumer, after resolving
  * uncorrelated scalar subqueries.
  */
object Executor {

  def execute(node: ExecNode, env: ExecEnv): TensorTable =
    node.run(node.children.map(execute(_, env)), env)

  /** Run a compiled query end-to-end and name outputs as the frontend did. */
  def run(ir: CompiledIR, cfg: TqpConfig, tables: String => TensorTable): TensorTable = {
    // Resolve scalar subqueries first (in order; later ones may reference
    // earlier results through the environment).
    var env = ExecEnv.empty
    ir.subqueries.foreach { case (sub, dt) =>
      val t = execute(Planner.plan(sub, cfg, tables), env)
      env = ExecEnv(env.subqueryValues :+ scalarOf(t, dt))
    }
    val out = execute(Planner.plan(ir.plan, cfg, tables), env)
    require(out.columns.length == ir.outputNames.length,
      s"output arity ${out.columns.length} != ${ir.outputNames.length}")
    TensorTable(out.columns.zip(ir.outputNames).map { case (c, n) => c.renamed(n) })
  }

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
      // Coerce to the type the frontend expects at the use site.
      (dt, raw) match {
        case (DType.F64, l: java.lang.Long)   => java.lang.Double.valueOf(l.doubleValue)
        case (DType.I64, d: java.lang.Double) => java.lang.Long.valueOf(d.longValue)
        case _                                => raw
      }
    }
  }
}
