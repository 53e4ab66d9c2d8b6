package repro.core.compile

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{Expression => CExpr, _}
import org.apache.spark.sql.catalyst.expressions.aggregate._
import org.apache.spark.sql.catalyst.optimizer.NormalizeNaNAndZero
import org.apache.spark.sql.catalyst.planning.ExtractSingleColumnNullAwareAntiJoin
import org.apache.spark.sql.catalyst.plans.{logical => L}
import org.apache.spark.sql.catalyst.plans.{Cross => CrossJT, ExistenceJoin, FullOuter, Inner => InnerJT, LeftAnti => LeftAntiJT, LeftOuter => LeftOuterJT, LeftSemi => LeftSemiJT, RightOuter}
import org.apache.spark.sql.types._
import repro.core.data.DType
import repro.core.expr.{AggCall, AggFn, Expr}
import repro.core.ir._

import scala.collection.mutable

/** The Parsing Layer (§4.2.2).
  *
  * The frontend database — Apache Spark, exactly as in the paper — parses
  * and optimizes the SQL statement; this module walks the resulting
  * Catalyst *optimized logical plan* in post-order and emits TQP's IR.
  * Unsupported operators raise [[UnsupportedPlanException]], matching the
  * paper's "this phase fails with an exception" behavior.
  *
  * Variables: every Catalyst attribute becomes an [[IRVar]] whose unique id
  * is `name#exprId` — deterministic, immutable, and stable across self-joins
  * (each side of a self-join has distinct exprIds).
  */
final class UnsupportedPlanException(msg: String) extends RuntimeException(msg)

/** A compiled query: the main IR plan, plus the IR plans of any uncorrelated
  * scalar subqueries (resolved by the Execution Layer before the main plan
  * runs), plus the user-facing output column names.
  */
final case class CompiledIR(plan: IROp, subqueries: Vector[(IROp, DType)], outputNames: Vector[String])

object CatalystFrontend {

  def compile(df: DataFrame, tableFor: Seq[Attribute] => Option[String]): CompiledIR = {
    val plan = df.queryExecution.optimizedPlan
    val ctx  = new Ctx(tableFor)
    val ir   = ctx.translate(plan)
    CompiledIR(ir, ctx.subqueries.toVector, df.schema.fieldNames.toVector)
  }

  def dtypeOf(dt: DataType): DType = dt match {
    case LongType | IntegerType | ShortType | ByteType => DType.I64
    case DoubleType | FloatType                        => DType.F64
    case _: DecimalType                                => DType.F64
    case DateType                                      => DType.Date
    case StringType                                    => DType.Str
    case BooleanType                                   => DType.Bool
    case other => throw new UnsupportedPlanException(s"unsupported data type $other")
  }

  def varId(a: Attribute): String = s"${a.name}#${a.exprId.id}"

  /** Translate a standalone (subquery-free) Catalyst expression — used by
    * the Spark-executor integration path (repro.sparkexec).
    */
  def translateExpression(e: CExpr): Expr = new Ctx(_ => None).tx(e)

  private def irVar(a: Attribute): IRVar = IRVar(varId(a), a.name, dtypeOf(a.dataType))

  private final class Ctx(tableFor: Seq[Attribute] => Option[String]) {
    val subqueries = mutable.ArrayBuffer[(IROp, DType)]()

    // ---------------- plan translation ----------------

    def translate(plan: L.LogicalPlan): IROp = plan match {
      case p: L.Project =>
        val child = translate(p.child)
        IROp.Project(child, p.projectList.map(named).toVector)

      case f: L.Filter =>
        IROp.Filter(translate(f.child), tx(f.condition))

      case j: L.Join =>
        translateJoin(j)

      case a: L.Aggregate =>
        translateAggregate(a)

      case s: L.Sort =>
        val keys = s.order.map { so =>
          val asc = so.direction == Ascending
          val nullsFirst = so.nullOrdering == NullsFirst
          (tx(so.child), asc, nullsFirst)
        }.toVector
        IROp.Sort(translate(s.child), keys)

      case gl: L.GlobalLimit =>
        val n = gl.limitExpr match {
          case Literal(v: Int, _) => v
          case other => throw new UnsupportedPlanException(s"non-literal limit $other")
        }
        IROp.Limit(translate(gl.child), n)

      case ll: L.LocalLimit =>
        // Single-node engine: local limit == global limit.
        val n = ll.limitExpr match {
          case Literal(v: Int, _) => v
          case other => throw new UnsupportedPlanException(s"non-literal limit $other")
        }
        IROp.Limit(translate(ll.child), n)

      case leaf if leaf.children.isEmpty =>
        tableFor(leaf.output) match {
          case Some(name) => IROp.Scan(name, leaf.output.map(irVar).toVector)
          case None =>
            throw new UnsupportedPlanException(
              s"unregistered leaf ${leaf.getClass.getSimpleName} with output ${leaf.output.map(_.name)}")
        }

      case other =>
        throw new UnsupportedPlanException(s"unsupported operator ${other.getClass.getSimpleName}")
    }

    private def named(ne: NamedExpression): (Expr, IRVar) = ne match {
      case a: Alias              => (tx(a.child), IRVar(varId(a.toAttribute), a.name, dtypeOf(a.dataType)))
      case a: AttributeReference => (tx(a), irVar(a))
      case other => throw new UnsupportedPlanException(s"unsupported named expression $other")
    }

    // ---------------- joins ----------------

    private def translateJoin(j: L.Join): IROp = j match {
      // Spark rewrites `x NOT IN (subquery)` to an anti join on
      // `x = y OR isnull(x = y)`; with one column that is a keyed anti join
      // with NULL-aware semantics, not a cross product.
      case ExtractSingleColumnNullAwareAntiJoin(lk, rk) =>
        IROp.Join(translate(j.left), translate(j.right), JoinKind.LeftAnti,
          lk.map(tx).toVector, rk.map(tx).toVector, None, nullAware = true)
      case _ => translatePlainJoin(j)
    }

    private def translatePlainJoin(j: L.Join): IROp = {
      val leftOut  = j.left.outputSet
      val rightOut = j.right.outputSet

      def conjuncts(e: CExpr): Seq[CExpr] = e match {
        case And(l, r) => conjuncts(l) ++ conjuncts(r)
        case other     => Seq(other)
      }

      val all = j.condition.map(conjuncts).getOrElse(Nil)
      val (equi, residual) = all.partition {
        case EqualTo(l, r) =>
          (l.references.subsetOf(leftOut) && r.references.subsetOf(rightOut)) ||
          (l.references.subsetOf(rightOut) && r.references.subsetOf(leftOut))
        case _ => false
      }
      val keys = equi.map {
        case EqualTo(l, r) =>
          if (l.references.subsetOf(leftOut)) (tx(l), tx(r)) else (tx(r), tx(l))
        case other => throw new IllegalStateException(s"$other")
      }
      val residualExpr = residual.reduceOption(And.apply).map(tx)

      def mk(kind: JoinKind, left: IROp, right: IROp): IROp =
        IROp.Join(left, right, kind, keys.map(_._1).toVector, keys.map(_._2).toVector, residualExpr,
          nullAware = false)

      val l = translate(j.left)
      val r = translate(j.right)
      j.joinType match {
        case InnerJT    => mk(if (keys.isEmpty) JoinKind.Cross else JoinKind.Inner, l, r)
        case CrossJT    => mk(if (keys.isEmpty) JoinKind.Cross else JoinKind.Inner, l, r)
        case LeftOuterJT => mk(JoinKind.LeftOuter, l, r)
        case LeftSemiJT  => mk(JoinKind.LeftSemi, l, r)
        case LeftAntiJT  => mk(JoinKind.LeftAnti, l, r)
        case ExistenceJoin(exists) => mk(JoinKind.Existence(irVar(exists)), l, r)
        case RightOuter =>
          // Flip to a left-outer with swapped children, then restore Spark's
          // output order (left columns first) with a Project.
          val flippedKeys = keys.map(_.swap)
          val join = IROp.Join(r, l, JoinKind.LeftOuter,
            flippedKeys.map(_._1).toVector, flippedKeys.map(_._2).toVector, residualExpr, nullAware = false)
          val wanted = (j.left.output ++ j.right.output).map(irVar)
          IROp.Project(join, wanted.map(v => (Expr.ColRef(v.id, v.dtype): Expr, v)).toVector)
        case FullOuter =>
          throw new UnsupportedPlanException("full outer join not supported")
        case other => throw new UnsupportedPlanException(s"join type $other")
      }
    }

    // ---------------- aggregation ----------------

    private def translateAggregate(a: L.Aggregate): IROp = {
      val child = translate(a.child)

      // Grouping expressions: reuse the attribute's variable when grouping by
      // a plain column, otherwise mint a synthetic grouping variable.
      val groupKeys: Vector[(Expr, IRVar)] = a.groupingExpressions.zipWithIndex.map {
        case (attr: AttributeReference, _) => (tx(attr), irVar(attr))
        case (e, i) => (tx(e), IRVar(s"#gk$i", s"#gk$i", dtypeOf(e.dataType)))
      }.toVector

      // Collect distinct aggregate calls (slots), then rewrite the result
      // expressions to reference slots / grouping variables.
      val slotKeys = mutable.ArrayBuffer[CExpr]()
      val slots    = mutable.ArrayBuffer[AggCall]()

      def slotOf(ae: AggregateExpression): Int = {
        val idx = slotKeys.indexWhere(_.semanticEquals(ae))
        if (idx >= 0) idx
        else {
          slotKeys += ae
          slots += toAggCall(ae)
          slots.length - 1
        }
      }

      def rewrite(e: CExpr): Expr = {
        // Grouping expression occurrence → its grouping variable.
        val gk = a.groupingExpressions.indexWhere(_.semanticEquals(e))
        e match {
          case _ if gk >= 0 && !e.isInstanceOf[Literal] =>
            val v = groupKeys(gk)._2
            Expr.ColRef(v.id, v.dtype)
          case ae: AggregateExpression =>
            val s = slotOf(ae)
            Expr.ColRef(AggCall.slotName(s), slots(s).resultType)
          case attr: AttributeReference =>
            throw new UnsupportedPlanException(
              s"aggregate result references non-grouping column ${attr.name}")
          case _ => txWith(e, rewrite)
        }
      }

      val results: Vector[(Expr, IRVar)] = a.aggregateExpressions.map {
        case al: Alias             => (rewrite(al.child), IRVar(varId(al.toAttribute), al.name, dtypeOf(al.dataType)))
        case attr: AttributeReference => (rewrite(attr), irVar(attr))
        case other => throw new UnsupportedPlanException(s"aggregate output $other")
      }.toVector

      IROp.Aggregate(child, groupKeys, slots.toVector, results)
    }

    private def toAggCall(ae: AggregateExpression): AggCall = {
      if (ae.filter.isDefined)
        throw new UnsupportedPlanException("FILTER clause on aggregates not supported")
      ae.aggregateFunction match {
        case c: Count if c.children.forall(_.foldable) => AggCall(AggFn.CountStar, None, ae.isDistinct)
        case c: Count if c.children.length == 1        => AggCall(AggFn.Count, Some(tx(c.children.head)), ae.isDistinct)
        case s: Sum     => AggCall(AggFn.Sum, Some(tx(s.child)), ae.isDistinct)
        case s: Average => AggCall(AggFn.Avg, Some(tx(s.child)), ae.isDistinct)
        case s: Min     => AggCall(AggFn.Min, Some(tx(s.child)), ae.isDistinct)
        case s: Max     => AggCall(AggFn.Max, Some(tx(s.child)), ae.isDistinct)
        case other => throw new UnsupportedPlanException(s"aggregate function $other")
      }
    }

    // ---------------- expressions ----------------

    def tx(e: CExpr): Expr = txWith(e, tx)

    /** Translate one Catalyst expression; recursion goes through `rec` so the
      * aggregate rewriter can intercept nested nodes.
      */
    private def txWith(e: CExpr, rec: CExpr => Expr): Expr = e match {
      case a: AttributeReference => Expr.ColRef(varId(a), dtypeOf(a.dataType))
      case al: Alias             => rec(al.child)
      case Literal(null, dt)     => Expr.NullLit(dtypeOf(dt))
      case Literal(v, dt)        => Expr.Lit(value(v, dt), dtypeOf(dt))

      case c: Cast => Expr.CastTo(rec(c.child), dtypeOf(c.dataType))
      case k: KnownFloatingPointNormalized => rec(k.child)
      case n: NormalizeNaNAndZero          => rec(n.child)

      case x: Add      => Expr.Arith(Expr.AddK, rec(x.left), rec(x.right))
      case x: Subtract => Expr.Arith(Expr.SubK, rec(x.left), rec(x.right))
      case x: Multiply => Expr.Arith(Expr.MulK, rec(x.left), rec(x.right))
      case x: Divide   => Expr.Arith(Expr.DivK, rec(x.left), rec(x.right))
      case x: UnaryMinus => Expr.Neg(rec(x.child))

      case x: EqualTo            => Expr.Cmp(Expr.EqK, rec(x.left), rec(x.right))
      case x: LessThan           => Expr.Cmp(Expr.LtK, rec(x.left), rec(x.right))
      case x: LessThanOrEqual    => Expr.Cmp(Expr.LeK, rec(x.left), rec(x.right))
      case x: GreaterThan        => Expr.Cmp(Expr.GtK, rec(x.left), rec(x.right))
      case x: GreaterThanOrEqual => Expr.Cmp(Expr.GeK, rec(x.left), rec(x.right))

      case And(l, r) => Expr.And(rec(l), rec(r))
      case Or(l, r)  => Expr.Or(rec(l), rec(r))
      case Not(c)    => Expr.Not(rec(c))

      case In(v, list) if list.forall(_.isInstanceOf[Literal]) =>
        Expr.InValues(rec(v), list.map { case Literal(x, dt) => value(x, dt) })
      case ins: InSet =>
        Expr.InValues(rec(ins.child), ins.hset.toSeq.map(value(_, ins.child.dataType)))

      case x: IsNull    => Expr.IsNull(rec(x.child))
      case x: IsNotNull => Expr.IsNotNull(rec(x.child))

      case cw: CaseWhen =>
        numericCase(Expr.CaseWhen(cw.branches.map { case (c, v) => (rec(c), rec(v)) }, cw.elseValue.map(rec)))
      case iff: If =>
        numericCase(Expr.CaseWhen(Seq((rec(iff.predicate), rec(iff.trueValue))), Some(rec(iff.falseValue))))
      case co: Coalesce if co.children.length == 2 =>
        numericCase(Expr.CaseWhen(Seq((Expr.IsNotNull(rec(co.children.head)), rec(co.children.head))),
                                  Some(rec(co.children(1)))))

      case l: Like => l.right match {
        case Literal(p, StringType) => Expr.StrPred(Expr.LikeP, rec(l.left), p.toString)
        case other => throw new UnsupportedPlanException(s"non-literal LIKE pattern $other")
      }
      case s: StartsWith => Expr.StrPred(Expr.StartsWithP, rec(s.left), litString(s.right))
      case s: EndsWith   => Expr.StrPred(Expr.EndsWithP, rec(s.left), litString(s.right))
      case s: Contains   => Expr.StrPred(Expr.ContainsP, rec(s.left), litString(s.right))

      case s: Substring =>
        (s.pos, s.len) match {
          case (Literal(p: Int, _), Literal(l: Int, _)) => Expr.Substr(rec(s.str), p, l)
          case other => throw new UnsupportedPlanException(s"non-literal substring bounds $other")
        }

      case y: Year => Expr.Year(rec(y.child))

      case ss: ScalarSubquery =>
        if (ss.outerAttrs.nonEmpty)
          throw new UnsupportedPlanException("correlated scalar subquery survived optimization")
        val subIr = translate(ss.plan)
        val dt    = dtypeOf(ss.dataType)
        subqueries += ((subIr, dt))
        Expr.ScalarSub(subqueries.length - 1, dt)

      case other =>
        throw new UnsupportedPlanException(
          s"unsupported expression ${other.getClass.getSimpleName}: $other")
    }

    /** CASE, IF and COALESCE evaluate to numbers and dates only. */
    private def numericCase(cw: Expr.CaseWhen): Expr =
      if (cw.supported) cw
      else throw new UnsupportedPlanException(s"CASE/IF/COALESCE over ${cw.dtype} unsupported")

    private def litString(e: CExpr): String = e match {
      case Literal(v, StringType) => v.toString
      case other => throw new UnsupportedPlanException(s"expected string literal, got $other")
    }

    /** A Catalyst value of type `dt` (a literal's or an `InSet` member) as
      * the value of an [[Expr.Lit]] of `dtypeOf(dt)`; NULL stays null.
      */
    private def value(v: Any, dt: DataType): Any = if (v == null) null else dt match {
      case IntegerType    => v.asInstanceOf[Int].toLong
      case LongType       => v.asInstanceOf[Long]
      case ShortType      => v.asInstanceOf[Short].toLong
      case DoubleType     => v.asInstanceOf[Double]
      case FloatType      => v.asInstanceOf[Float].toDouble
      case _: DecimalType => v.asInstanceOf[Decimal].toDouble
      case StringType     => v.toString
      case DateType       => v.asInstanceOf[Int].toLong
      case BooleanType    => v.asInstanceOf[Boolean]
      case other          => throw new UnsupportedPlanException(s"literal type $other")
    }
  }
}
