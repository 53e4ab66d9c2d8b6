package repro.core.expr

import repro.core.data.DType
import repro.tensor.TensorOps

/** TQP's internal expression IR (§5.1).
  *
  * Built by the Parsing Layer from Catalyst expression trees; evaluated by
  * the Planning Layer either *interpreted* (one tensor op — and one
  * intermediate tensor — per node, like eager PyTorch) or *compiled* (the
  * whole tree fused into a single-pass kernel, like TorchScript; see
  * [[ExprCompiler]]).
  */
sealed trait Expr {
  def dtype: DType
  def children: Seq[Expr]
}

object Expr {
  /** Reference to a column of the operator's input, by unique name. */
  final case class ColRef(name: String, dtype: DType) extends Expr { def children = Nil }

  /** Literal. value is Long (I64/Date), Double (F64), String (Str) or Boolean. */
  final case class Lit(value: Any, dtype: DType) extends Expr { def children = Nil }
  /** SQL NULL of a given type. */
  final case class NullLit(dtype: DType) extends Expr { def children = Nil }

  /** `op` is the [[TensorOps]] op code both expression backends run. */
  sealed abstract class ArithKind(val op: Int)
  case object AddK extends ArithKind(TensorOps.Add)
  case object SubK extends ArithKind(TensorOps.Sub)
  case object MulK extends ArithKind(TensorOps.Mul)
  case object DivK extends ArithKind(TensorOps.Div)

  final case class Arith(kind: ArithKind, l: Expr, r: Expr) extends Expr {
    def children = Seq(l, r)
    val dtype: DType =
      if (kind == DivK) DType.F64
      else if (l.dtype == DType.F64 || r.dtype == DType.F64) DType.F64
      else DType.I64
  }

  final case class Neg(e: Expr) extends Expr {
    def children = Seq(e); def dtype: DType = e.dtype
  }

  sealed abstract class CmpKind(val op: Int)
  case object EqK extends CmpKind(TensorOps.Eq)
  case object NeK extends CmpKind(TensorOps.Ne)
  case object LtK extends CmpKind(TensorOps.Lt)
  case object LeK extends CmpKind(TensorOps.Le)
  case object GtK extends CmpKind(TensorOps.Gt)
  case object GeK extends CmpKind(TensorOps.Ge)

  final case class Cmp(kind: CmpKind, l: Expr, r: Expr) extends Expr {
    def children = Seq(l, r); def dtype: DType = DType.Bool
    /** The type both sides are compared in: Str for strings, F64 if either
      * side is F64 (an I64 side is widened, never the F64 side truncated),
      * else I64 (dates included).
      */
    val operandType: DType =
      if (l.dtype == DType.Str || r.dtype == DType.Str) DType.Str
      else if (l.dtype == DType.F64 || r.dtype == DType.F64) DType.F64
      else DType.I64
  }

  final case class And(l: Expr, r: Expr) extends Expr { def children = Seq(l, r); def dtype = DType.Bool }
  final case class Or(l: Expr, r: Expr)  extends Expr { def children = Seq(l, r); def dtype = DType.Bool }
  final case class Not(e: Expr)          extends Expr { def children = Seq(e);    def dtype = DType.Bool }

  /** Membership in a constant set. */
  final case class InValues(e: Expr, values: Seq[Any]) extends Expr {
    def children = Seq(e); def dtype = DType.Bool
  }

  final case class IsNull(e: Expr)    extends Expr { def children = Seq(e); def dtype = DType.Bool }
  final case class IsNotNull(e: Expr) extends Expr { def children = Seq(e); def dtype = DType.Bool }

  final case class CaseWhen(branches: Seq[(Expr, Expr)], elseValue: Option[Expr]) extends Expr {
    def children: Seq[Expr]  = branches.flatMap(b => Seq(b._1, b._2)) ++ elseValue.toSeq
    def dtype: DType = branches.head._2.dtype
    /** Both backends evaluate CASE over numeric and date results only. */
    def supported: Boolean = dtype == DType.F64 || dtype == DType.I64 || dtype == DType.Date
  }

  final case class CastTo(e: Expr, dtype: DType) extends Expr { def children = Seq(e) }

  sealed trait StrPredKind
  case object LikeP       extends StrPredKind
  case object StartsWithP extends StrPredKind
  case object EndsWithP   extends StrPredKind
  case object ContainsP   extends StrPredKind

  /** String predicate against a constant pattern (LIKE & friends, §5). */
  final case class StrPred(kind: StrPredKind, e: Expr, pattern: String) extends Expr {
    def children = Seq(e); def dtype = DType.Bool
  }

  /** SQL substring (1-based, fixed start/length — what TPC-H needs). */
  final case class Substr(e: Expr, start1: Int, len: Int) extends Expr {
    def children = Seq(e); def dtype = DType.Str
  }

  /** extract(year from date-col). */
  final case class Year(e: Expr) extends Expr { def children = Seq(e); def dtype = DType.I64 }

  /** Result of an uncorrelated scalar subquery, resolved at execution time. */
  final case class ScalarSub(index: Int, dtype: DType) extends Expr { def children = Nil }

  /** Collect all column names referenced by an expression. */
  def refs(e: Expr): Set[String] = e match {
    case ColRef(n, _) => Set(n)
    case other        => other.children.flatMap(refs).toSet
  }
}

/** Aggregate functions supported by TQP (§5: SUM, AVG, MIN, MAX, COUNT,
  * with and without DISTINCT).
  */
sealed trait AggFn
object AggFn {
  case object Sum       extends AggFn
  case object Avg       extends AggFn
  case object Min       extends AggFn
  case object Max       extends AggFn
  case object Count     extends AggFn
  case object CountStar extends AggFn
}

/** One aggregate call: slot `i` of an [[repro.core.ir.IROp.Aggregate]]. */
final case class AggCall(fn: AggFn, arg: Option[Expr], distinct: Boolean) {
  def resultType: DType = fn match {
    case AggFn.Count | AggFn.CountStar => DType.I64
    case AggFn.Avg                     => DType.F64
    case _                             => arg.get.dtype
  }
}

object AggCall {
  /** The column that holds slot `slot`'s value per group, which an
    * aggregation's result expressions read as a [[Expr.ColRef]].
    */
  def slotName(slot: Int): String = s"#agg$slot"
}
