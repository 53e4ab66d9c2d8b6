package repro.tensor

import org.scalacheck.{Arbitrary, Gen, Prop, Properties}

/** ScalaCheck properties for the tensor runtime (run by sbt's native
  * ScalaCheck framework).
  */
object TensorProps extends Properties("tensor") {

  private val longs   = Gen.containerOf[Array, Long](Gen.chooseNum(-5000L, 5000L))

  /** The stable reference permutation: ties keep input order. */
  private def stableArgsort(a: Array[Long], descending: Boolean): Seq[Long] =
    a.indices.sortBy(a(_))(if (descending) Ordering[Long].reverse else Ordering[Long]).map(_.toLong)

  private def sortsStably(a: Array[Long], descending: Boolean): Boolean =
    RadixSort.argsortLong(a, descending).toSeq == stableArgsort(a, descending)

  private def sortsStably(a: Array[Long]): Boolean = sortsStably(a, descending = false) && sortsStably(a, descending = true)

  /** Arrays drawn from a small pool of `value`s, so most keys repeat. */
  private def duplicateHeavy(value: Gen[Long]): Gen[Array[Long]] = for {
    pool <- Gen.nonEmptyListOf(value)
    a    <- Gen.containerOf[Array, Long](Gen.oneOf(pool))
  } yield a

  // A range below 2^16 takes the counting sort.
  private val smallRange = Gen.oneOf(longs, duplicateHeavy(Gen.chooseNum(-5000L, 5000L)))

  property("argsortLong sorts") = Prop.forAll(smallRange)(sortsStably(_, descending = false))

  property("argsortLong descending sorts") = Prop.forAll(smallRange)(sortsStably(_, descending = true))

  property("argsort is a permutation") = Prop.forAll(longs) { a =>
    RadixSort.argsortLong(a, descending = false).sorted.toSeq == a.indices.map(_.toLong)
  }

  // Keys over ±2^40 take the LSD sort (4 digits of 11 bits); multiples of
  // 2^24 share their two low digits, so those passes are skipped.
  property("argsortLong is the stable sort of keys over ±2^40") = {
    val spread = Gen.chooseNum(-(1L << 40), 1L << 40)
    val lowZero = Gen.chooseNum(-(1L << 16), 1L << 16).map(_ << 24)
    Prop.forAll(Gen.oneOf(
      Gen.containerOf[Array, Long](spread), Gen.containerOf[Array, Long](lowZero),
      duplicateHeavy(spread), duplicateHeavy(lowZero)))(sortsStably(_))
  }

  // With both extremes present `max - min` overflows a signed long. An
  // arithmetic shift right by `s` leaves a range of about `64 - s` bits, so
  // every LSD width from 17 to 64 bits is drawn too.
  property("argsortLong is the stable sort of keys up to Long.MinValue and Long.MaxValue") = {
    val full = Gen.chooseNum(Long.MinValue, Long.MaxValue)
    val shift = Gen.choose(0, 64 - 17)
    val extremes = Gen.frequency(
      1 -> Gen.const(Long.MinValue), 1 -> Gen.const(Long.MaxValue), 1 -> Gen.chooseNum(-3L, 3L), 3 -> full)
    Prop.forAll(Gen.oneOf(
      Gen.containerOf[Array, Long](extremes), duplicateHeavy(extremes),
      shift.flatMap(s => Gen.containerOf[Array, Long](full.map(_ >> s))),
      shift.flatMap(s => duplicateHeavy(full.map(_ >> s)))))(sortsStably(_))
  }

  property("argsortLong on empty, one-key and all-equal arrays is the identity") = Prop.forAll(
    Gen.oneOf(Gen.const(Long.MinValue), Gen.const(Long.MaxValue), Arbitrary.arbitrary[Long]),
    Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 3 -> Gen.choose(2, 300))) { (k, n) =>
    val a = Array.fill(n)(k)
    val identity = a.indices.map(_.toLong)
    RadixSort.argsortLong(a, descending = false).toSeq == identity &&
      RadixSort.argsortLong(a, descending = true).toSeq == identity
  }

  property("cumsum last element equals sum") = Prop.forAll(longs) { a =>
    a.isEmpty || TensorOps.cumsum(I64Tensor(a)).data.last == a.sum
  }

  property("bincount sums to n") = Prop.forAll(Gen.containerOf[Array, Long](Gen.chooseNum(0L, 100L))) { a =>
    TensorOps.bincount(I64Tensor(a), 101).data.sum == a.length.toLong
  }

  property("bucketize matches linear scan") = Prop.forAll(longs, longs) { (vs, bs0) =>
    val bs = bs0.sorted
    val got = TensorOps.bucketize(I64Tensor(vs), I64Tensor(bs)).data
    vs.indices.forall(i => got(i) == bs.count(_ <= vs(i)).toLong)
  }

  property("uniqueConsecutive reconstructs input") = Prop.forAll(longs) { a0 =>
    val a = a0.sorted
    val (u, inv, c) = TensorOps.uniqueConsecutive(I64Tensor(a))
    val rebuilt = inv.data.map(g => u.data(g.toInt))
    rebuilt.toSeq == a.toSeq && c.data.sum == a.length.toLong
  }

  property("maskedSelect == filter") = Prop.forAll(longs) { a =>
    val mask = BoolTensor(a.map(_ % 3 == 0))
    TensorOps.maskedSelect(I64Tensor(a), mask).data.toSeq == a.filter(_ % 3 == 0).toSeq
  }

  property("scatterAdd equals groupBy sum") = Prop.forAll(
    Gen.containerOf[Array, Long](Gen.chooseNum(0L, 19L))) { segs =>
    val vals = segs.map(_.toDouble + 1)
    val got = TensorOps.scatterAdd(F64Tensor(vals), I64Tensor(segs), 20).data
    (0 until 20).forall { g =>
      math.abs(got(g) - vals.zip(segs).filter(_._2 == g).map(_._1).sum) < 1e-9
    }
  }
}
