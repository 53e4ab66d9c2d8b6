package repro.core.compile

import org.scalatest.funsuite.AnyFunSuite
import repro.core.data.DType
import repro.core.expr.Expr
import repro.core.ir._

/** Canonicalization & optimization rules (§4.2.3): limit merging, no-op
  * projection removal, and scan-column pruning.
  */
class RulesSpec extends AnyFunSuite {

  private def v(n: String, dt: DType = DType.I64) = IRVar(n, n, dt)
  private val scan = IROp.Scan("t", Vector(v("a"), v("b"), v("c")))

  test("stacked limits merge to the minimum") {
    val ir = IROp.Limit(IROp.Limit(scan, 10), 5)
    Rules.canonicalize(ir) match {
      case IROp.Limit(s: IROp.Scan, 5) => assert(s.tableName == "t")
      case other => fail(s"unexpected $other")
    }
  }

  test("no-op projection is removed") {
    val proj = IROp.Project(scan, scan.outVars.map(vv => (Expr.ColRef(vv.id, vv.dtype): Expr, vv)).toVector)
    assert(Rules.canonicalize(proj) == scan)
  }

  test("renaming projection is kept") {
    val proj = IROp.Project(scan, Vector((Expr.ColRef("a", DType.I64), v("renamed"))))
    assert(Rules.canonicalize(proj) != scan)
  }

  test("scan columns prune to what the plan needs") {
    val filter = IROp.Filter(scan, Expr.Cmp(Expr.GtK, Expr.ColRef("b", DType.I64), Expr.Lit(1L, DType.I64)))
    val proj = IROp.Project(filter, Vector((Expr.ColRef("a", DType.I64), v("a"))))
    val pruned = Rules.pruneColumns(proj)
    val scanOut = pruned.asInstanceOf[IROp.Project].child.asInstanceOf[IROp.Filter]
      .child.asInstanceOf[IROp.Scan].outVars.map(_.id)
    assert(scanOut.toSet == Set("a", "b"), s"got $scanOut")
  }

  test("count(*)-style plans keep one scan column for the row count") {
    val agg = IROp.Aggregate(scan, Vector.empty,
      Vector(repro.core.expr.AggCall(repro.core.expr.AggFn.CountStar, None, distinct = false)),
      Vector((Expr.ColRef(repro.core.expr.AggCall.slotName(0), DType.I64), v("cnt"))))
    val pruned = Rules.pruneColumns(agg)
    val scanOut = pruned.asInstanceOf[IROp.Aggregate].child.asInstanceOf[IROp.Scan].outVars
    assert(scanOut.length == 1)
  }

  test("join pruning keeps key and residual columns") {
    val left  = IROp.Scan("l", Vector(v("k1"), v("x"), v("unused1")))
    val right = IROp.Scan("r", Vector(v("k2"), v("y"), v("unused2")))
    val join = IROp.Join(left, right, JoinKind.Inner,
      Vector(Expr.ColRef("k1", DType.I64)), Vector(Expr.ColRef("k2", DType.I64)),
      Some(Expr.Cmp(Expr.LtK, Expr.ColRef("x", DType.I64), Expr.ColRef("y", DType.I64))), nullAware = false)
    val proj = IROp.Project(join, Vector((Expr.ColRef("x", DType.I64), v("x"))))
    val pruned = Rules.pruneColumns(proj).asInstanceOf[IROp.Project].child.asInstanceOf[IROp.Join]
    assert(pruned.left.asInstanceOf[IROp.Scan].outVars.map(_.id).toSet == Set("k1", "x"))
    assert(pruned.right.asInstanceOf[IROp.Scan].outVars.map(_.id).toSet == Set("k2", "y"))
  }
}
