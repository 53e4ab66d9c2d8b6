package repro.tensor

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck properties for the tensor runtime (run by sbt's native
  * ScalaCheck framework).
  */
object TensorProps extends Properties("tensor") {

  private val longs   = Gen.containerOf[Array, Long](Gen.chooseNum(-5000L, 5000L))

  property("argsortLong sorts") = Prop.forAll(longs) { a =>
    val p = RadixSort.argsortLong(a, descending = false)
    p.map(i => a(i.toInt)).toSeq == a.sorted.toSeq
  }

  property("argsortLong descending sorts") = Prop.forAll(longs) { a =>
    val p = RadixSort.argsortLong(a, descending = true)
    p.map(i => a(i.toInt)).toSeq == a.sorted(Ordering[Long].reverse).toSeq
  }

  property("argsort is a permutation") = Prop.forAll(longs) { a =>
    RadixSort.argsortLong(a, descending = false).sorted.toSeq == a.indices.map(_.toLong)
  }

  property("cumsum last element equals sum") = Prop.forAll(longs) { a =>
    a.isEmpty || TensorOps.cumsum(I64Tensor(a)).data.last == a.sum
  }

  property("bincount sums to n") = Prop.forAll(Gen.containerOf[Array, Long](Gen.chooseNum(0L, 100L))) { a =>
    TensorOps.bincount(I64Tensor(a), 101).data.sum == a.length.toLong
  }

  property("repeatInterleave repeats each index by its count") = Prop.forAll(
    Gen.containerOf[Array, Long](Gen.frequency(1 -> Gen.const(0L), 3 -> Gen.chooseNum(1L, 5L)))) { counts =>
    TensorOps.repeatInterleave(I64Tensor(counts)).data.toSeq ==
      counts.toSeq.zipWithIndex.flatMap { case (c, i) => Seq.fill(c.toInt)(i.toLong) }
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
