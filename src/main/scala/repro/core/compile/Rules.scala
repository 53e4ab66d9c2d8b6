package repro.core.compile

import repro.core.expr.Expr
import repro.core.ir._

/** Canonicalization & Optimization Layer (§4.2.3): IR-to-IR rewrites.
  *
  * Canonicalization removes frontend idiosyncrasies (nested limits, no-op
  * projections); optimization prunes dead columns all the way down to the
  * scans — TQP's late-materialization / runtime-GC behavior expressed as a
  * compile-time rule.
  */
object Rules {

  def apply(op: IROp): IROp = pruneColumns(canonicalize(op))

  // ---------------- canonicalization ----------------

  def canonicalize(op: IROp): IROp = {
    val node = op match {
      case IROp.Filter(c, e)        => IROp.Filter(canonicalize(c), e)
      case IROp.Project(c, es)      => IROp.Project(canonicalize(c), es)
      case j: IROp.Join             => j.copy(left = canonicalize(j.left), right = canonicalize(j.right))
      case IROp.Aggregate(c, g, a, re) => IROp.Aggregate(canonicalize(c), g, a, re)
      case IROp.Sort(c, ks)         => IROp.Sort(canonicalize(c), ks)
      case IROp.Limit(c, n)         => IROp.Limit(canonicalize(c), n)
      case s: IROp.Scan             => s
    }
    node match {
      // Merge stacked limits (Spark's GlobalLimit(LocalLimit(...)) pattern).
      case IROp.Limit(IROp.Limit(c, a), b) => IROp.Limit(c, math.min(a, b))
      // Spark prunes COUNT(*)'s input to an empty projection; a table with
      // no columns has no rows, so read the child instead.
      case IROp.Project(c, es) if es.isEmpty => c
      // Drop projections that merely re-emit the child's variables.
      case p @ IROp.Project(c, es) =>
        val noop = es.length == c.outVars.length &&
          es.zip(c.outVars).forall {
            case ((Expr.ColRef(n, _), v), cv) => n == cv.id && v.id == cv.id
            case _ => false
          }
        if (noop) c else p
      case other => other
    }
  }

  // ---------------- column pruning ----------------

  /** Push the set of needed variables down and trim Scan outputs and unused
    * Project/Aggregate outputs.
    */
  def pruneColumns(op: IROp): IROp = prune(op, op.outVars.map(_.id).toSet)

  private def prune(op: IROp, needed: Set[String]): IROp = op match {
    case IROp.Scan(t, vars) =>
      val kept = vars.filter(v => needed(v.id))
      // Keep at least one column so row counts survive (e.g. COUNT(*)).
      IROp.Scan(t, if (kept.nonEmpty) kept else vars.take(1))

    case IROp.Filter(c, e) =>
      IROp.Filter(prune(c, needed ++ Expr.refs(e)), e)

    case IROp.Project(c, es) =>
      val kept = es.filter { case (_, v) => needed(v.id) }
      val keptNE = if (kept.nonEmpty) kept else es.take(1)
      IROp.Project(prune(c, keptNE.flatMap(e => Expr.refs(e._1)).toSet), keptNE)

    case j: IROp.Join =>
      val keyRefs = (j.leftKeys ++ j.rightKeys).flatMap(Expr.refs).toSet
      val resRefs = j.residual.map(Expr.refs).getOrElse(Set.empty)
      val want    = needed ++ keyRefs ++ resRefs
      j.copy(left = prune(j.left, want), right = prune(j.right, want))

    case IROp.Aggregate(c, g, a, re) =>
      val keptRes = {
        val kr = re.filter { case (_, v) => needed(v.id) }
        if (kr.nonEmpty) kr else re.take(1)
      }
      val childNeeds = g.flatMap(e => Expr.refs(e._1)).toSet ++
        a.flatMap(_.arg.map(Expr.refs).getOrElse(Set.empty))
      IROp.Aggregate(prune(c, childNeeds), g, a, keptRes)

    case IROp.Sort(c, ks) =>
      IROp.Sort(prune(c, needed ++ ks.flatMap(k => Expr.refs(k._1))), ks)

    case IROp.Limit(c, n) =>
      IROp.Limit(prune(c, needed), n)
  }
}
