package repro.core.ir

import repro.core.data.DType
import repro.core.expr.{AggCall, Expr}

/** TQP's intermediate representation (§4.2.1).
  *
  * A graph of operators connected by *variables*. Each operator lists its
  * input and output variables; variables are immutable once created, carry a
  * unique deterministic identifier plus the frontend column name, and a new
  * variable is always minted for every operator output (never reused) — so
  * properties can be attached immutably and dead columns can be
  * garbage-collected at runtime.
  */
final case class IRVar(id: String, frontendName: String, dtype: DType) {
  override def toString: String = s"$frontendName:$id"
}

/** Join types TQP supports (§5): natural/inner, non-equi via residuals,
  * left-outer, left-semi, left-anti; Existence backs rewritten IN-subqueries.
  */
sealed trait JoinKind
object JoinKind {
  case object Inner     extends JoinKind
  case object LeftOuter extends JoinKind
  case object LeftSemi  extends JoinKind
  case object LeftAnti  extends JoinKind
  case object Cross     extends JoinKind
  /** Like semi, but emits all left rows plus a boolean "matched" column. */
  final case class Existence(outVar: IRVar) extends JoinKind
}

sealed trait IROp {
  def children: Seq[IROp]
  /** Output variables, in output-column order. */
  def outVars: Seq[IRVar]
  /** Short alias identifying the operator type (the IR node "alias"). */
  def alias: String
}

object IROp {

  /** Leaf: a registered input table. */
  final case class Scan(tableName: String, outVars: Vector[IRVar]) extends IROp {
    def children: Seq[IROp] = Nil
    def alias = "scan"
  }

  /** Bitmap filter (§3.1). `cond` refers to child outVars by variable id. */
  final case class Filter(child: IROp, cond: Expr) extends IROp {
    def children: Seq[IROp] = Seq(child)
    val outVars: Seq[IRVar] = child.outVars
    def alias = "filter"
  }

  /** Projection: each output variable is an expression over child vars. */
  final case class Project(child: IROp, exprs: Vector[(Expr, IRVar)]) extends IROp {
    def children: Seq[IROp] = Seq(child)
    val outVars: Seq[IRVar] = exprs.map(_._2)
    def alias = "project"
  }

  /** Equi-join with optional non-equi residual condition over pair columns.
    * Output vars: left vars ++ right vars (Inner/Outer/Cross); left vars
    * (Semi/Anti); left vars :+ exists (Existence). `nullAware` marks a
    * one-key anti join with `NOT IN` semantics (see [[repro.core.ops.JoinOp]]).
    */
  final case class Join(left: IROp, right: IROp, kind: JoinKind,
                        leftKeys: Vector[Expr], rightKeys: Vector[Expr],
                        residual: Option[Expr], nullAware: Boolean) extends IROp {
    def children: Seq[IROp] = Seq(left, right)
    val outVars: Seq[IRVar] = kind match {
      case JoinKind.LeftSemi | JoinKind.LeftAnti => left.outVars
      case JoinKind.Existence(v)                 => left.outVars :+ v
      case _                                     => left.outVars ++ right.outVars
    }
    def alias = "join"
  }

  /** Group-by aggregation (§5.4). Output = resultExprs, which may reference
    * grouping vars and aggregate slots (a `ColRef` to `AggCall.slotName`).
    */
  final case class Aggregate(child: IROp, groupKeys: Vector[(Expr, IRVar)],
                             aggs: Vector[AggCall],
                             resultExprs: Vector[(Expr, IRVar)]) extends IROp {
    def children: Seq[IROp] = Seq(child)
    val outVars: Seq[IRVar] = resultExprs.map(_._2)
    def alias = "aggregate"
  }

  /** Multi-key sort; each key carries ascending/descending + nulls-first. */
  final case class Sort(child: IROp, keys: Vector[(Expr, Boolean, Boolean)]) extends IROp {
    def children: Seq[IROp] = Seq(child)
    val outVars: Seq[IRVar] = child.outVars
    def alias = "sort"
  }

  final case class Limit(child: IROp, n: Int) extends IROp {
    def children: Seq[IROp] = Seq(child)
    val outVars: Seq[IRVar] = child.outVars
    def alias = "limit"
  }

  /** Pretty-print the IR graph (debugging aid — the paper stresses IR
    * debuggability as a design win of immutable variables).
    */
  def treeString(op: IROp, indent: Int = 0): String = {
    val pad  = "  " * indent
    val head = op match {
      case Scan(t, vs)        => s"Scan($t) -> [${vs.mkString(", ")}]"
      case Filter(_, c)       => s"Filter($c)"
      case Project(_, es)     => s"Project(${es.map { case (e, v) => s"$v=$e" }.mkString(", ")})"
      case Join(_, _, k, lk, rk, res, na) =>
        s"Join($k${if (na) " null-aware" else ""}, keys=${lk.zip(rk).mkString(",")}, residual=$res)"
      case Aggregate(_, g, a, _) => s"Aggregate(keys=${g.map(_._2).mkString(",")}, aggs=$a)"
      case Sort(_, ks)        => s"Sort(${ks.mkString(",")})"
      case Limit(_, n)        => s"Limit($n)"
    }
    (pad + head) + op.children.map(c => "\n" + treeString(c, indent + 1)).mkString
  }
}
