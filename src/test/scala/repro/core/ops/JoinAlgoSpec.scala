package repro.core.ops

import org.scalatest.funsuite.AnyFunSuite
import repro.tensor._

/** Algorithm 1 (sort join), Algorithm 2 (hash join) and the matched-flag
  * path of semi, anti and existence joins against a naive nested-loop
  * reference, over uniform, skewed, collision-heavy, null and empty keys.
  */
class JoinAlgoSpec extends AnyFunSuite {

  private def refJoin(l: Array[Long], r: Array[Long]): Set[(Long, Long)] =
    (for {
      i <- l.indices; j <- r.indices
      if l(i) == r(j)
    } yield (i.toLong, j.toLong)).toSet

  private def pairsOf(res: (I64Tensor, I64Tensor)): Set[(Long, Long)] =
    res._1.data.zip(res._2.data).toSet

  private def checkBoth(l: Array[Long], r: Array[Long]): Unit = {
    val expected = refJoin(l, r)
    val k = (l ++ r).foldLeft(0L)(math.max) + 1
    val sortRes = SortJoin.join(I64Tensor(l), I64Tensor(r), k.toInt)
    assert(pairsOf(sortRes) == expected, "sort join")
    assert(sortRes._1.length == expected.size, "sort join emits no duplicates")
    val hashRes = HashJoin.join(I64Tensor(l), I64Tensor(r))
    assert(pairsOf(hashRes) == expected, "hash join")
    assert(hashRes._1.length == expected.size, "hash join emits no duplicates")
  }

  test("uniform keys") {
    val rnd = new scala.util.Random(42)
    checkBoth(Array.fill(200)(rnd.nextLong(50)), Array.fill(300)(rnd.nextLong(50)))
  }

  test("skewed keys (many duplicates on both sides)") {
    val rnd = new scala.util.Random(7)
    val l = Array.fill(150)(if (rnd.nextBoolean()) 3L else rnd.nextLong(10))
    val r = Array.fill(120)(if (rnd.nextInt(3) == 0) 3L else rnd.nextLong(10))
    checkBoth(l, r)
  }

  test("unique-unique (primary key to primary key)") {
    checkBoth(Array.tabulate(100)(_.toLong), Array.tabulate(60)(i => (i * 2).toLong))
  }

  test("no matches") {
    checkBoth(Array(1L, 2L, 3L), Array(10L, 11L))
  }

  test("empty sides") {
    checkBoth(Array.empty[Long], Array(1L, 2L))
    checkBoth(Array(1L, 2L), Array.empty[Long])
    checkBoth(Array.empty[Long], Array.empty[Long])
  }

  test("hash join with forced collisions (keys far apart)") {
    // Keys spaced by large strides alias heavily modulo the table size.
    val l = Array.tabulate(64)(i => i * 1024L + 1)
    val r = Array.tabulate(80)(i => (i % 40) * 1024L + 1)
    val expected = refJoin(l, r)
    assert(pairsOf(HashJoin.join(I64Tensor(l), I64Tensor(r))) == expected)
  }

  test("sort join histogram arithmetic on a worked example") {
    // Mirrors Figure 3: left=[5,7,5,5], right=[7,5,5,7] → 5-bucket: 3x2, 7-bucket: 1x2.
    val l = Array(5L, 7L, 5L, 5L)
    val r = Array(7L, 5L, 5L, 7L)
    val res = SortJoin.join(I64Tensor(l), I64Tensor(r), 8)
    assert(res._1.length == 3 * 2 + 1 * 2)
    assert(pairsOf(res) == refJoin(l, r))
  }

  test("joint key encoding over composite keys") {
    import repro.core.data.{Column, DType}
    val l1 = Column("a", DType.I64, I64Tensor(Array(1L, 1L, 2L, 9L)))
    val l2 = Column("b", DType.Str, StringTensor.fromStrings(Array("x", "y", "x", "x")))
    val r1 = Column("c", DType.I64, I64Tensor(Array(1L, 2L, 1L)))
    val r2 = Column("d", DType.Str, StringTensor.fromStrings(Array("y", "x", "q")))
    val (lc, rc, k) = KeyEncoder.encodeJoint(Seq(l1, l2), Seq(r1, r2))
    assert(k > 0 && lc.length == 4 && rc.length == 3)
    // (1,y) matches; (2,x) matches; (1,x) vs (1,q) don't.
    assert(lc.data(1) == rc.data(0))
    assert(lc.data(2) == rc.data(1))
    assert(lc.data(0) != rc.data(2))
    assert(lc.data.forall(c => c >= 0 && c < k) && rc.data.forall(c => c >= 0 && c < k))
  }

  test("KeyEncoder.packColumns packs small ranges and rejects wide ones") {
    val a = I64Tensor(Array(5L, 6L, 7L))
    val b = I64Tensor(Array(100L, 100L, 101L))
    val packed = KeyEncoder.packColumns(Seq(a, b)).get
    assert(packed.data.toSeq.distinct.length == 3)
    val wide = I64Tensor(Array(Long.MinValue + 1, Long.MaxValue - 1, 0L))
    assert(KeyEncoder.packColumns(Seq(wide, wide)).isEmpty)
  }

  test("toOrderedI64 orders strings by unsigned bytes at any width") {
    import repro.core.data.{Column, DType}
    def byteOrder(a: String, b: String): Boolean =
      java.util.Arrays.compareUnsigned(a.getBytes("UTF-8"), b.getBytes("UTF-8")) < 0
    // Width 8 is packed, width 12 dictionary-encoded; both orders agree.
    val narrow = Array("Brand#12", "éééé", "", "MAIL", "ü", "Brand#12", "zzzzzzzz")
    for (vals <- Seq(narrow, narrow :+ "longer value")) {
      val enc = KeyEncoder.toOrderedI64(Column("s", DType.Str, StringTensor.fromStrings(vals))).data
      for (i <- vals.indices; j <- vals.indices)
        assert((enc(i) < enc(j)) == byteOrder(vals(i), vals(j)), s"${vals(i)} vs ${vals(j)}")
    }
  }

  test("groupsOf yields sorted segments and representatives") {
    val keys = I64Tensor(Array(3L, 1L, 3L, 2L, 1L, 3L))
    val g = KeyEncoder.groupsOf(Seq(keys))
    assert(g.nGroups == 3)
    // Sort-path group ids follow key order: key(i) < key(j) ⇒ rowGroup(i) < rowGroup(j).
    for (i <- keys.data.indices; j <- keys.data.indices if keys.data(i) < keys.data(j))
      assert(g.rowGroup.data(i) < g.rowGroup.data(j), s"rows $i, $j")
    assert(g.rowGroup.data.toSeq == Seq(2L, 0L, 2L, 1L, 0L, 2L))
    // Each group's representative is its first row.
    assert(g.repRows.data.toSeq == Seq(1L, 3L, 0L))
  }

  test("HashGrouping matches sort grouping semantics") {
    val rnd = new scala.util.Random(11)
    val keys = I64Tensor(Array.fill(500)(rnd.nextLong(37)))
    val sortG = KeyEncoder.groupsOf(Seq(keys))
    val hashG = HashGrouping.groupsOf(Seq(keys))
    assert(hashG.nGroups == sortG.nGroups)
    // Same partition of rows into groups (group labels may differ).
    def partition(g: KeyEncoder.Groups): Set[Set[Int]] =
      g.rowGroup.data.indices.groupBy(i => g.rowGroup.data(i)).values.map(_.toSet).toSet
    assert(partition(hashG) == partition(sortG))
    // Both paths pick each group's first row as its representative.
    for (g <- Seq(sortG, hashG); gid <- 0 until g.nGroups)
      assert(g.repRows.data(gid) == g.rowGroup.data.indexOf(gid.toLong))
  }

  test("LEFT OUTER JOIN against an empty right side pads every left row with nulls") {
    import repro.core.data.{Column, DType, TensorTable}
    import repro.core.expr.{ExecEnv, Expr, ExprEval}
    import repro.core.ir.JoinKind
    val left = TensorTable(Vector(
      Column("lk", DType.I64, I64Tensor(Array(1L, 2L, 2L))),
      Column("lv", DType.Str, StringTensor.fromStrings(Array("a", "b", "c")))))
    val right = TensorTable(Vector(
      Column("rk", DType.I64, I64Tensor(Array.emptyLongArray)),
      Column("rx", DType.F64, F64Tensor(Array.emptyDoubleArray)),
      Column("rs", DType.Str, StringTensor.fromStrings(Array.empty[String]))))
    for (algo <- Seq(JoinAlgo.Sort, JoinAlgo.Hash)) withClue(s"$algo: ") {
      val out = JoinOp.execute(left, right, JoinKind.LeftOuter,
        Seq(Expr.ColRef("lk", DType.I64)), Seq(Expr.ColRef("rk", DType.I64)), None,
        nullAware = false, algo, ExprEval, ExecEnv.empty, Seq("lk", "lv", "rk", "rx", "rs"))
      assert(out.numRows == 3)
      val rows = (0 until 3).map(i => (out.column("lk").i64.data(i), out.column("lv").str.rowString(i))).sorted
      assert(rows == Seq((1L, "a"), (2L, "b"), (2L, "c")))
      for (c <- Seq("rk", "rx", "rs"); i <- 0 until 3) assert(!out.column(c).isValid(i), s"$c row $i")
    }
  }

  test("semi, anti and existence joins equal a nested-loop reference") {
    import repro.core.data.{Column, DType, TensorTable}
    import repro.core.expr.{ExecEnv, Expr, ExprCompiler, ExprEval}
    import repro.core.ir.{IRVar, JoinKind}

    // One side: row ids, nullable keys in [0, nKeys) and nullable values.
    final case class Side(keys: Array[Option[Long]], vals: Array[Option[Double]]) {
      def n: Int = keys.length
      def table(p: String): TensorTable = {
        def valid(o: Array[_ <: Option[Any]]) = if (o.forall(_.isDefined)) None else Some(o.map(_.isDefined))
        TensorTable(Vector(
          Column(s"${p}id", DType.I64, I64Tensor(Array.tabulate(n)(_.toLong))),
          Column(s"${p}k", DType.I64, I64Tensor(keys.map(_.getOrElse(0L))), valid(keys)),
          Column(s"${p}v", DType.F64, F64Tensor(vals.map(_.getOrElse(0.0))), valid(vals))))
      }
    }
    def side(rnd: scala.util.Random, n: Int, nKeys: Int, pNullKey: Double): Side = Side(
      Array.fill(n)(if (rnd.nextDouble() < pNullKey) None else Some(rnd.nextLong(nKeys.toLong))),
      Array.fill(n)(if (rnd.nextDouble() < 0.2) None else Some(rnd.nextInt(100).toDouble)))

    // (seed, left rows, right rows, distinct keys, P(null left key), P(null right key))
    val cases = Seq((1, 60, 40, 4, 0.15, 0.15), (2, 50, 70, 25, 0.0, 0.0), (3, 40, 40, 6, 0.2, 0.0),
                    (4, 0, 30, 5, 0.1, 0.1), (5, 30, 0, 5, 0.1, 0.1), (6, 0, 0, 1, 0.0, 0.0))
    // `rv > lv`: NULL on every pair where either value is NULL.
    val residual = Expr.Cmp(Expr.GtK, Expr.ColRef("rv", DType.F64), Expr.ColRef("lv", DType.F64))
    val existsVar = IRVar("m", "m", DType.Bool)
    val dev3 = new CpuDevice(3)
    try for ((seed, nL, nR, nKeys, pL, pR) <- cases) {
      val rnd = new scala.util.Random(seed)
      val (l, r) = (side(rnd, nL, nKeys, pL), side(rnd, nR, nKeys, pR))
      def matchedRef(withResidual: Boolean): Seq[Boolean] = (0 until nL).map { i =>
        (0 until nR).exists { j =>
          l.keys(i).isDefined && l.keys(i) == r.keys(j) &&
            (!withResidual || r.vals(j).zip(l.vals(i)).exists { case (rv, lv) => rv > lv })
        }
      }
      // NOT IN: keep a row when the right side is empty, or when neither its key
      // nor any right key is NULL and no right key equals it.
      val notInRef = (0 until nL).map(i =>
        nR == 0 || (!r.keys.contains(None) && l.keys(i).isDefined && !r.keys.contains(l.keys(i))))

      val shapes: Seq[(JoinKind, Boolean, Boolean)] =
        (for (kind <- Seq(JoinKind.LeftSemi, JoinKind.LeftAnti, JoinKind.Existence(existsVar));
              res <- Seq(false, true)) yield (kind, res, false)) :+ ((JoinKind.LeftAnti, false, true))
      for ((kind, withResidual, nullAware) <- shapes;
           algo <- Seq(JoinAlgo.Sort, JoinAlgo.Hash, JoinAlgo.Auto);
           exprs <- Seq(ExprEval, ExprCompiler);
           dev <- Seq(CpuDevice.single, dev3))
        withClue(s"case $seed, $kind, residual=$withResidual, nullAware=$nullAware, $algo, $exprs, ${dev.threads} threads: ") {
          val outNames = kind match {
            case JoinKind.Existence(v) => Seq("lid", "lk", "lv", v.id)
            case _                     => Seq("lid", "lk", "lv")
          }
          val out = ExecCtx.withDevice(dev) {
            JoinOp.execute(l.table("l"), r.table("r"), kind,
              Seq(Expr.ColRef("lk", DType.I64)), Seq(Expr.ColRef("rk", DType.I64)),
              if (withResidual) Some(residual) else None, nullAware, algo, exprs, ExecEnv.empty, outNames)
          }
          val matched = matchedRef(withResidual)
          val ids = out.column("lid").i64.data.toSeq
          kind match {
            case JoinKind.LeftSemi => assert(ids == (0 until nL).filter(matched(_)).map(_.toLong))
            case JoinKind.LeftAnti =>
              val keep = if (nullAware) notInRef else matched.map(!_)
              assert(ids == (0 until nL).filter(keep(_)).map(_.toLong))
            case _ =>
              assert(ids == (0 until nL).map(_.toLong))
              assert(out.column("m").bool.data.toSeq == matched)
          }
        }
    } finally dev3.close()
  }
}
