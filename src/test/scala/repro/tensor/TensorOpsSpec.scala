package repro.tensor

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for the tensor runtime: each op is checked against a naive
  * Scala reference implementation over randomized inputs (the TCR substrate
  * must be right before anything built on it can be). Property-style checks
  * live in [[TensorProps]] (ScalaCheck).
  */
class TensorOpsSpec extends AnyFunSuite {

  private def randomLongs(seed: Int, n: Int): Array[Long] = {
    val r = new scala.util.Random(seed)
    Array.fill(n)(r.nextLong(2001) - 1000)
  }

  private def randomDoubles(seed: Int, n: Int): Array[Double] = {
    val r = new scala.util.Random(seed)
    Array.fill(n)((r.nextDouble() - 0.5) * 2e6)
  }

  private def trials(f: Int => Unit): Unit = Seq(0, 1, 2, 7, 100, 1023).foreach(f)

  /** The one `OpRecord` that running `f` leaves in a fresh profile. */
  private def recordOf(f: => Tensor): OpRecord = {
    val p = new Profile
    ExecCtx.withProfile(p)(f)
    assert(p.records.size == 1, p.records)
    p.records.head
  }

  test("arange") {
    assert(TensorOps.arange(5).data.toSeq == Seq(0L, 1L, 2L, 3L, 4L))
    assert(TensorOps.arange(0).data.isEmpty)
  }

  test("elementwise arithmetic matches reference") {
    trials { n =>
      val a = randomDoubles(n, n)
      val t = F64Tensor(a)
      assert(TensorOps.arith(TensorOps.Add, t, t).data.toSeq == a.map(x => x + x).toSeq)
      assert(TensorOps.mul(t, t).data.toSeq == a.map(x => x * x).toSeq)
      assert(TensorOps.sub(t, t).data.toSeq == a.map(_ => 0.0).toSeq)
    }
  }

  test("comparisons produce correct bitmaps") {
    trials { n =>
      val a = randomLongs(n, n)
      val t = I64Tensor(a)
      val z = I64Tensor.fill(a.length, 0L)
      assert(TensorOps.lt(t, z).data.toSeq == a.map(_ < 0L).toSeq)
      assert(TensorOps.ge(t, z).data.toSeq == a.map(_ >= 0L).toSeq)
      assert(TensorOps.eq(t, t).data.forall(identity))
    }
  }

  test("where selects per element") {
    val c = BoolTensor(Array(true, false, true))
    val a = F64Tensor(Array(1.0, 2.0, 3.0))
    val b = F64Tensor(Array(9.0, 8.0, 7.0))
    assert(TensorOps.where(c, a, b).data.toSeq == Seq(1.0, 8.0, 3.0))
  }

  test("nonzero / maskedSelect agree with filter") {
    trials { n =>
      val a = randomLongs(n + 31, n)
      val t = I64Tensor(a)
      val mask = TensorOps.cmp(TensorOps.Gt, t, I64Tensor.fill(a.length, 10L))
      assert(TensorOps.maskedSelect(t, mask).data.toSeq == a.filter(_ > 10L).toSeq)
      val nz = TensorOps.nonzero(mask)
      assert(nz.data.map(i => a(i.toInt)).toSeq == a.filter(_ > 10L).toSeq)
    }
  }

  test("indexSelect gathers") {
    val t = F64Tensor(Array(10.0, 20.0, 30.0))
    assert(TensorOps.indexSelect(t, I64Tensor(Array(2L, 0L, 2L))).data.toSeq == Seq(30.0, 10.0, 30.0))
  }

  test("argsort is a stable ascending sort (longs)") {
    trials { n =>
      val a = randomLongs(n + 5, math.max(n, 3) * 7)
      val perm = TensorOps.argsort(I64Tensor(a))
      assert(perm.data.map(i => a(i.toInt)).toSeq == a.sorted.toSeq)
      perm.data.map(i => (a(i.toInt), i)).sliding(2).foreach {
        case Array((k1, i1), (k2, i2)) => if (k1 == k2) assert(i1 < i2)
        case _ =>
      }
    }
  }

  test("argsort doubles handles negatives and zeros") {
    // Doubles are sorted as order-preserving longs (KeyEncoder.toOrderedI64), the only double-ordering path.
    import repro.core.data.{Column, DType}
    import repro.core.ops.KeyEncoder
    trials { n =>
      val a = randomDoubles(n + 9, n * 3) ++ Array(0.0, -0.0, 1.0, -1.0)
      val perm = TensorOps.argsort(KeyEncoder.toOrderedI64(Column("x", DType.F64, F64Tensor(a))))
      val sorted = perm.data.map(i => a(i.toInt))
      assert(sorted.toSeq == a.sorted.toSeq)
      // -0.0 and 0.0 are one key, so the stable sort keeps them in input order.
      assert(sorted.filter(_ == 0.0).map(java.lang.Double.doubleToRawLongBits).toSeq ==
        a.filter(_ == 0.0).map(java.lang.Double.doubleToRawLongBits).toSeq)
    }
  }

  test("argsortDescending reverses order") {
    trials { n =>
      val a = randomLongs(n + 3, n * 2)
      val perm = TensorOps.argsortDescending(I64Tensor(a))
      assert(perm.data.map(i => a(i.toInt)).toSeq == a.sorted(Ordering[Long].reverse).toSeq)
    }
  }

  test("argsort records one sort of 64n bytes whichever path sorts") {
    // Counting sort (dense codes), LSD over 41 bits, LSD over all 64 bits.
    val n = 5000
    val r = new scala.util.Random(11)
    for (keys <- Seq(Array.fill(n)(r.nextLong(n.toLong)), Array.fill(n)(r.nextLong(1L << 41) - (1L << 40)),
                     Array.fill(n)(r.nextLong()) :+ Long.MinValue :+ Long.MaxValue)) {
      val want = OpRecord("sort", OpClass.Sort, keys.length.toLong, 64L * keys.length)
      assert(recordOf(TensorOps.argsort(I64Tensor(keys))) == want)
      assert(recordOf(TensorOps.argsortDescending(I64Tensor(keys))) == want)
    }
  }

  test("bincount counts occurrences") {
    val t = I64Tensor(Array(0L, 1L, 1L, 3L, 3L, 3L))
    assert(TensorOps.bincount(t, 5).data.toSeq == Seq(1L, 2L, 0L, 3L, 0L))
    assertThrows[IllegalArgumentException](TensorOps.bincount(I64Tensor(Array(5L)), 5))
  }

  test("cumsum is an inclusive prefix sum") {
    trials { n =>
      val a = randomLongs(n + 77, n)
      assert(TensorOps.cumsum(I64Tensor(a)).data.toSeq == a.scanLeft(0L)(_ + _).drop(1).toSeq)
    }
  }

  test("bucketize = count of boundaries <= v (binary search)") {
    val bounds = I64Tensor(Array(2L, 6L, 9L))
    val v      = I64Tensor(Array(0L, 2L, 5L, 6L, 8L, 9L, 100L))
    assert(TensorOps.bucketize(v, bounds).data.toSeq == Seq(0L, 1L, 1L, 2L, 2L, 3L, 3L))
  }

  test("uniqueConsecutive: uniques, inverse, counts") {
    val (u, inv, c) = TensorOps.uniqueConsecutive(I64Tensor(Array(4L, 4L, 7L, 1L, 1L, 1L)))
    assert(u.data.toSeq == Seq(4L, 7L, 1L))
    assert(inv.data.toSeq == Seq(0L, 0L, 1L, 2L, 2L, 2L))
    assert(c.data.toSeq == Seq(2L, 1L, 3L))
    val (u0, inv0, c0) = TensorOps.uniqueConsecutive(I64Tensor(Array.empty))
    assert(u0.length == 0 && inv0.length == 0 && c0.length == 0)
  }

  test("scatterAdd reduces by segment") {
    val v = F64Tensor(Array(1.0, 2.0, 3.0, 4.0))
    val s = I64Tensor(Array(0L, 1L, 0L, 1L))
    assert(TensorOps.scatterAdd(v, s, 2).data.toSeq == Seq(4.0, 6.0))
  }

  test("scatterMin / scatterMax") {
    import TensorOps.{Max, Min, Sum}
    val v = F64Tensor(Array(5.0, -2.0, 3.0, 9.0))
    val l = I64Tensor(Array(5L, -2L, 3L, 9L))
    val s = I64Tensor(Array(0L, 0L, 1L, 1L))
    val p = new Profile
    ExecCtx.withProfile(p) {
      assert(TensorOps.scatterReduce(Min, v, s, 3).data.toSeq == Seq(-2.0, 3.0, Double.PositiveInfinity))
      assert(TensorOps.scatterReduce(Max, v, s, 3).data.toSeq == Seq(5.0, 9.0, Double.NegativeInfinity))
      assert(TensorOps.scatterReduce(Min, l, s, 3).data.toSeq == Seq(-2L, 3L, Long.MaxValue))
      assert(TensorOps.scatterReduce(Max, l, s, 3).data.toSeq == Seq(5L, 9L, Long.MinValue))
      assert(TensorOps.scatterReduce(Sum, l, s, 3).data.toSeq == Seq(3L, 12L, 0L))
    }
    // Each op keeps its kernel name and 24 bytes per input row in the profile.
    assert(p.records == Seq("scatterMin", "scatterMax", "scatterMin", "scatterMax", "scatterAdd")
      .map(OpRecord(_, OpClass.Scatter, 4L, 96L)))
  }

  test("scatterOverwrite: last write wins") {
    val t = TensorOps.scatterOverwrite(I64Tensor.fill(4, -1L),
      I64Tensor(Array(1L, 2L, 1L)), I64Tensor(Array(10L, 20L, 30L)))
    assert(t.data.toSeq == Seq(-1L, 30L, 20L, -1L))
  }

  test("reductions") {
    val t = F64Tensor(Array(1.5, -2.5, 4.0))
    assert(TensorOps.sum(t) == 3.0)
    assert(TensorOps.max(I64Tensor(Array(3L, 9L, -1L))) == 9L)
    assert(TensorOps.any(BoolTensor(Array(false, true))))
    assert(!TensorOps.any(BoolTensor(Array(false, false))))
  }

  test("cat concatenates") {
    assert(TensorOps.cat(I64Tensor(Array(1L)), I64Tensor(Array(2L, 3L))).data.toSeq == Seq(1L, 2L, 3L))
  }

  test("floorDiv / remainder match Math.floor semantics") {
    val a = I64Tensor(Array(7L, -7L, 9L))
    val b = I64Tensor(Array(2L, 2L, 3L))
    assert(TensorOps.floorDiv(a, b).data.toSeq == Seq(3L, -4L, 3L))
    assert(TensorOps.remainder(a, b).data.toSeq == Seq(1L, 1L, 0L))
    assert(TensorOps.remainder(I64Tensor(Array(-3L)), 5L).data.toSeq == Seq(2L))
  }

  test("parallel device produces identical results to single-threaded") {
    val dev = new CpuDevice(6)
    try {
      val a = Array.tabulate(300000)(i => (i * 2654435761L) % 997 - 500.0)
      val single = TensorOps.mul(F64Tensor(a), F64Tensor(a)).data
      val multi = ExecCtx.withDevice(dev) { TensorOps.mul(F64Tensor(a), F64Tensor(a)).data }
      assert(java.util.Arrays.equals(single, multi))
      val sSum = TensorOps.sum(F64Tensor(a))
      val mSum = ExecCtx.withDevice(dev) { TensorOps.sum(F64Tensor(a)) }
      assert(math.abs(sSum - mSum) < 1e-6 * math.max(math.abs(sSum), 1.0))
      // Summation order is fixed: mixed magnitudes make it observable.
      val b = F64Tensor(Array.tabulate(300000)(i => math.sin(i.toDouble) * math.pow(10.0, i % 13 - 6)))
      val repeated = ExecCtx.withDevice(dev) { Seq.fill(20)(TensorOps.sum(b)) }
      assert(repeated.distinct.size == 1, repeated.distinct)
    } finally dev.close()
  }

  private val arithOpsF64 = Seq(TensorOps.Add, TensorOps.Sub, TensorOps.Mul, TensorOps.Div)
  private val arithOpsI64 = Seq(TensorOps.Add, TensorOps.Sub, TensorOps.Mul, TensorOps.FloorDiv, TensorOps.Mod)
  private val cmpOps = Seq(TensorOps.Eq, TensorOps.Ne, TensorOps.Lt, TensorOps.Le, TensorOps.Gt, TensorOps.Ge)

  test("a one-element operand broadcasts like a full-length fill, on either side") {
    val dev = new CpuDevice(3)
    try {
      // 0 and 1 rows, one partial broadcast block, and several chunks of whole and partial blocks.
      for (n <- Seq(0, 1, 5, 4097, 40000); d <- Seq(CpuDevice.single, dev)) ExecCtx.withDevice(d) {
        val x = F64Tensor(randomDoubles(n, n).map(v => if (v < -5e5) 0.0 else v))
        val i = I64Tensor(randomLongs(n, n).map(v => if (v == 0L) 1L else v))
        for (v <- Seq(-0.0, 2.5)) {
          val (s, f) = (F64Tensor(Array(v)), F64Tensor.fill(n, v))
          def bits(t: F64Tensor) = t.data.map(java.lang.Double.doubleToRawLongBits).toSeq
          for (op <- arithOpsF64) {
            assert(bits(TensorOps.arith(op, x, s)) == bits(TensorOps.arith(op, x, f)), (n, op, v))
            assert(bits(TensorOps.arith(op, s, x)) == bits(TensorOps.arith(op, f, x)), (n, op, v))
          }
          for (op <- cmpOps) {
            assert(TensorOps.cmp(op, x, s).data.toSeq == TensorOps.cmp(op, x, f).data.toSeq, (n, op, v))
            assert(TensorOps.cmp(op, s, x).data.toSeq == TensorOps.cmp(op, f, x).data.toSeq, (n, op, v))
          }
        }
        for (v <- Seq(-7L, 3L)) {
          val (s, f) = (I64Tensor(Array(v)), I64Tensor.fill(n, v))
          for (op <- arithOpsI64) {
            assert(TensorOps.arith(op, i, s).data.toSeq == TensorOps.arith(op, i, f).data.toSeq, (n, op, v))
            assert(TensorOps.arith(op, s, i).data.toSeq == TensorOps.arith(op, f, i).data.toSeq, (n, op, v))
          }
          for (op <- cmpOps) {
            assert(TensorOps.cmp(op, i, s).data.toSeq == TensorOps.cmp(op, i, f).data.toSeq, (n, op, v))
            assert(TensorOps.cmp(op, s, i).data.toSeq == TensorOps.cmp(op, f, i).data.toSeq, (n, op, v))
          }
        }
      }
    } finally dev.close()
  }

  test("operands of different lengths, neither of one element, are rejected") {
    for ((la, lb) <- Seq((3, 2), (2, 3), (0, 2), (2, 0))) {
      val (a, b) = (F64Tensor(new Array[Double](la)), F64Tensor(new Array[Double](lb)))
      val (c, d) = (I64Tensor(new Array[Long](la)), I64Tensor(new Array[Long](lb)))
      assertThrows[IllegalArgumentException](TensorOps.arith(TensorOps.Add, a, b))
      assertThrows[IllegalArgumentException](TensorOps.arith(TensorOps.Add, c, d))
      assertThrows[IllegalArgumentException](TensorOps.cmp(TensorOps.Lt, a, b))
      assertThrows[IllegalArgumentException](TensorOps.cmp(TensorOps.Lt, c, d))
    }
  }

  test("each binary op records one OpRecord of 24n, 16n, 17n or 9n bytes") {
    val n = 1000
    val (vf, sf) = (F64Tensor(new Array[Double](n)), F64Tensor(Array(1.0)))
    val (vl, sl) = (I64Tensor(new Array[Long](n)), I64Tensor(Array(1L)))
    for ((a, b, bytes) <- Seq((vf, vf, 24), (vf, sf, 16), (sf, vf, 16))) {
      val r = recordOf(TensorOps.arith(TensorOps.Mul, a, b))
      assert(r.cls == OpClass.ElementWise && r.elems == n && r.bytes == bytes.toLong * n, r)
      assert(recordOf(TensorOps.cmp(TensorOps.Lt, a, b)).bytes == (bytes - 7).toLong * n)
    }
    for ((a, b, bytes) <- Seq((vl, vl, 24), (vl, sl, 16), (sl, vl, 16))) {
      val r = recordOf(TensorOps.arith(TensorOps.Sub, a, b))
      assert(r.cls == OpClass.ElementWise && r.elems == n && r.bytes == bytes.toLong * n, r)
      assert(recordOf(TensorOps.cmp(TensorOps.Ge, a, b)).bytes == (bytes - 7).toLong * n)
    }
    // The PyTorch-named forwards keep their byte counts.
    assert(recordOf(TensorOps.neg(vf)).bytes == 16L * n)
    assert(recordOf(TensorOps.addScalar(vf, 1.0)).bytes == 16L * n)
    assert(recordOf(TensorOps.remainder(vl, 7L)).bytes == 16L * n)
    assert(recordOf(TensorOps.ltScalar(vf, 1.0)).bytes == 9L * n)
  }

  test("profile records op classes and bytes") {
    val p = new Profile
    ExecCtx.withProfile(p) {
      val t = F64Tensor(Array.fill(1000)(1.0))
      TensorOps.arith(TensorOps.Add, t, t)
      TensorOps.argsort(I64Tensor(Array.tabulate(1000)(i => (i * 7919L) % 1000)))
    }
    val names = p.records.map(_.name)
    assert(names.contains("add") && names.contains("sort"))
    assert(p.totalBytes > 0)
    assert(p.byClass.contains(OpClass.Sort))
  }
}
