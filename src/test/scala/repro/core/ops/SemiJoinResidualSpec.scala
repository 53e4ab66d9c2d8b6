package repro.core.ops

import org.scalatest.funsuite.AnyFunSuite
import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr.{ExecEnv, Expr, ExprBackend, ExprCompiler, ExprEval}
import repro.core.ir.{IRVar, JoinKind}
import repro.tensor._

/** Semi, anti and existence joins with a residual against a nested-loop
  * reference, on small random tables: every comparison form JoinOp decides
  * per key (`<`, `<=`, `>`, `>=`, `<>`, `NOT(=)`, either operand order), with
  * and without left-only and right-only conjuncts, with NULL keys, values and
  * conjuncts, and residuals that still need the pair table.
  */
class SemiJoinResidualSpec extends AnyFunSuite {
  import Expr._
  import SemiJoinResidualSpec._

  // Values include the extremes, where an empty key's min or max would pass `<=` or `>=`.
  private val extremes = Array(Long.MinValue, Long.MaxValue)
  private def side(rnd: scala.util.Random, n: Int, nKeys: Int, base: Long): Side = {
    def opt(p: Double)(x: => Long) = Array.fill(n)(if (rnd.nextDouble() < p) None else Some(x))
    Side(opt(0.1)(rnd.nextLong(nKeys.toLong)),
         opt(0.15)(if (rnd.nextInt(12) == 0) extremes(rnd.nextInt(2)) else base + rnd.nextInt(8)),
         opt(0.15)(rnd.nextInt(6).toLong))
  }

  private def cmpRef(op: Int, a: Long, b: Long): Boolean = op match {
    case TensorOps.Eq => a == b
    case TensorOps.Ne => a != b
    case TensorOps.Lt => a < b
    case TensorOps.Le => a <= b
    case TensorOps.Gt => a > b
    case TensorOps.Ge => a >= b
  }

  private def residuals(vType: DType): Seq[Residual] = {
    val (lv, rv) = (ColRef("lv", vType), ColRef("rv", vType))
    val (lw, rw) = (ColRef("lw", DType.I64), ColRef("rw", DType.I64))
    def both(a: Option[Long], b: Option[Long])(f: (Long, Long) => Boolean) = a.zip(b).exists(f.tupled)
    // The six forms, written `lv op rv` or `rv op lv`, each as (label, expr, value on a pair).
    val kinds = Seq(LtK, LeK, GtK, GeK, NeK)
    val mixed: Seq[(String, Expr, (Side, Int, Side, Int) => Boolean)] =
      (for (kind <- kinds; leftFirst <- Seq(true, false)) yield {
        val (a, b) = if (leftFirst) (lv, rv) else (rv, lv)
        (s"${if (leftFirst) "lv" else "rv"} $kind", Cmp(kind, a, b): Expr, (l: Side, i: Int, r: Side, j: Int) =>
          if (leftFirst) both(l.v(i), r.v(j))(cmpRef(kind.op, _, _)) else both(r.v(j), l.v(i))(cmpRef(kind.op, _, _)))
      }) ++ Seq(true, false).map { leftFirst =>
        val (a, b) = if (leftFirst) (lv, rv) else (rv, lv)
        (s"NOT(${if (leftFirst) "lv" else "rv"} = )", Not(Cmp(EqK, a, b)): Expr,
          (l: Side, i: Int, r: Side, j: Int) => both(l.v(i), r.v(j))(_ != _))
      } :+ (("NOT(lv < rv)", Not(Cmp(LtK, lv, rv)), (l: Side, i: Int, r: Side, j: Int) => both(l.v(i), r.v(j))(_ >= _)))
    val leftOnly  = Cmp(GtK, lw, Lit(1L, DType.I64))
    val rightOnly = Cmp(LtK, rw, Lit(4L, DType.I64))
    def lHolds(l: Side, i: Int) = l.w(i).exists(_ > 1)
    def rHolds(r: Side, j: Int) = r.w(j).exists(_ < 4)
    mixed.flatMap { case (label, e, f) =>
      Seq(
        Residual(label, e, f),
        Residual(s"lw > 1 AND $label", And(leftOnly, e), (l, i, r, j) => lHolds(l, i) && f(l, i, r, j)),
        Residual(s"$label AND rw < 4 AND lw > 1", And(And(e, rightOnly), leftOnly),
          (l, i, r, j) => f(l, i, r, j) && rHolds(r, j) && lHolds(l, i)))
    } ++ Seq(
      Residual("rw < 4 AND lw > 1", And(rightOnly, leftOnly), (l, i, r, j) => rHolds(r, j) && lHolds(l, i)),
      // Two comparisons between the sides: only the pair table decides this.
      Residual("lv < rv AND lw <> rw", And(Cmp(LtK, lv, rv), Cmp(NeK, lw, rw)),
        (l, i, r, j) => both(l.v(i), r.v(j))(_ < _) && both(l.w(i), r.w(j))(_ != _)))
  }

  private val existsVar = IRVar("m", "m", DType.Bool)
  private val backends: Seq[ExprBackend] = Seq(ExprEval, ExprCompiler)

  /** Checks every residual on one pair of tables, keyed or (`keyed = false`) keyless. */
  private def check(l: Side, r: Side, vType: DType, keyed: Boolean, devices: Seq[CpuDevice]): Unit =
    for (res <- residuals(vType)) {
      val matched = (0 until l.n).map { i =>
        (0 until r.n).exists(j => (!keyed || l.keys(i).isDefined && l.keys(i) == r.keys(j)) && res.holds(l, i, r, j))
      }
      val (lKeys, rKeys) = if (keyed) (Seq(ColRef("lk", DType.I64)), Seq(ColRef("rk", DType.I64))) else (Nil, Nil)
      for (kind <- Seq(JoinKind.LeftSemi, JoinKind.LeftAnti, JoinKind.Existence(existsVar));
           exprs <- backends; dev <- devices)
        withClue(s"${res.label}, $vType, keyed=$keyed, $kind, $exprs, ${dev.threads} threads: ") {
          val outNames = Seq("lid", "lk", "lv", "lw") ++ (kind match {
            case JoinKind.Existence(v) => Seq(v.id)
            case _                     => Nil
          })
          val out = ExecCtx.withDevice(dev) {
            JoinOp.execute(l.table("l", vType), r.table("r", vType), kind, lKeys, rKeys, Some(res.expr),
              nullAware = false, JoinAlgo.Sort, exprs, ExecEnv.empty, outNames)
          }
          val ids = out.column("lid").i64.data.toSeq
          kind match {
            case JoinKind.LeftSemi => assert(ids == (0 until l.n).filter(matched(_)).map(_.toLong))
            case JoinKind.LeftAnti => assert(ids == (0 until l.n).filterNot(matched(_)).map(_.toLong))
            case _ =>
              assert(ids == (0 until l.n).map(_.toLong))
              assert(out.column("m").bool.data.toSeq == matched)
          }
        }
    }

  // (seed, left rows, right rows, distinct keys)
  private val cases = Seq((1, 40, 50, 6), (2, 30, 30, 20), (3, 60, 80, 2), (4, 0, 25, 4), (5, 25, 0, 4), (6, 0, 0, 1))

  test("keyed semi, anti and existence joins with a residual equal a nested-loop reference") {
    val dev2 = new CpuDevice(2)
    try for ((seed, nL, nR, nKeys) <- cases; (vType, base) <- Seq((DType.I64, -3L), (DType.Date, 9000L))) {
      val rnd = new scala.util.Random(seed)
      val (l, r) = (side(rnd, nL, nKeys, base), side(rnd, nR, nKeys, base))
      withClue(s"case $seed: ")(check(l, r, vType, keyed = true, Seq(CpuDevice.single, dev2)))
    } finally dev2.close()
  }

  test("keyless semi, anti and existence joins with a residual equal a nested-loop reference") {
    for ((seed, nL, nR, _) <- cases) {
      val rnd = new scala.util.Random(100 + seed)
      val (l, r) = (side(rnd, nL, 1, 0L), side(rnd, nR, 1, 0L))
      withClue(s"case $seed: ")(check(l, r, DType.I64, keyed = false, Seq(CpuDevice.single)))
    }
  }

  test("a per-key residual enumerates no pairs; two comparisons between the sides do") {
    val rnd = new scala.util.Random(9)
    val (l, r) = (side(rnd, 30, 4, 0L), side(rnd, 40, 4, 0L))
    for (res <- residuals(DType.I64)) withClue(res.label) {
      val p = new Profile
      ExecCtx.withProfile(p) {
        JoinOp.execute(l.table("l", DType.I64), r.table("r", DType.I64), JoinKind.LeftSemi,
          Seq(ColRef("lk", DType.I64)), Seq(ColRef("rk", DType.I64)), Some(res.expr),
          nullAware = false, JoinAlgo.Sort, ExprEval, ExecEnv.empty, Seq("lid", "lk", "lv", "lw"))
      }
      val pairs = p.records.exists(_.name == "repeatInterleave")
      assert(pairs == res.label.startsWith("lv < rv AND lw <> rw"))
    }
  }
}

private object SemiJoinResidualSpec {
  /** One side: nullable keys, compared values `v` and conjunct inputs `w`. */
  private final case class Side(keys: Array[Option[Long]], v: Array[Option[Long]], w: Array[Option[Long]]) {
    def n: Int = keys.length
    def table(p: String, vType: DType): TensorTable = {
      def col(name: String, dt: DType, o: Array[Option[Long]]) =
        Column(name, dt, I64Tensor(o.map(_.getOrElse(0L))), if (o.forall(_.isDefined)) None else Some(o.map(_.isDefined)))
      TensorTable(Vector(
        Column(s"${p}id", DType.I64, I64Tensor(Array.tabulate(n)(_.toLong))),
        col(s"${p}k", DType.I64, keys), col(s"${p}v", vType, v), col(s"${p}w", DType.I64, w)))
    }
  }

  /** A residual and its value on one (left row, right row) pair: true only if TRUE, not NULL. */
  private final case class Residual(label: String, expr: Expr, holds: (Side, Int, Side, Int) => Boolean)
}
