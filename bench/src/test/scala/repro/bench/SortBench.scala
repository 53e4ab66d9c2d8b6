package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.tensor.{I64Tensor, TensorOps}

/** Sort microbenchmark: `TensorOps.argsort` (the radix argsort under the
  * sort join, sort grouping and ORDER BY) on five key shapes at 600k and 6M
  * keys, printing the median wall-clock ms per shape. It sizes a change to
  * `RadixSort` without a full TPC-H run. Every result is checked against
  * the stable sort; no time is asserted.
  *
  *   sbt "bench/testOnly repro.bench.SortBench"
  */
class SortBench extends AnyFunSuite {

  private val shapes: Seq[(String, (scala.util.Random, Int) => Array[Long])] = Seq(
    "dense codes in [0, n)" -> ((r, n) => Array.fill(n)(r.nextLong(n.toLong))),
    "presorted"             -> ((_, n) => Array.tabulate(n)(_.toLong)),
    "6 distinct values"     -> ((r, n) => Array.fill(n)(r.nextInt(6).toLong)),
    "uniform in +-2^40"     -> ((r, n) => Array.fill(n)(r.nextLong(1L << 41) - (1L << 40))),
    "full 64-bit"           -> ((r, n) => Array.fill(n)(r.nextLong())))

  /** (keys, warm-up runs, measured runs) per size. */
  private val sizes = Seq((600000, 10, 21), (6000000, 2, 5))

  /** True iff `perm` is the stable ascending argsort of `keys`: a permutation
    * along which the (key, index) pairs strictly increase. Only one
    * permutation has that property, so this is the stable reference.
    */
  private def isStableArgsort(keys: Array[Long], perm: Array[Long]): Boolean = {
    val n = keys.length
    val seen = new Array[Boolean](n)
    var ok = perm.length == n
    var i = 0
    while (ok && i < n) {
      val p = perm(i).toInt
      ok = p >= 0 && p < n && !seen(p)
      if (ok) {
        seen(p) = true
        if (i > 0) {
          val q = perm(i - 1).toInt
          ok = keys(q) < keys(p) || (keys(q) == keys(p) && q < p)
        }
      }
      i += 1
    }
    ok
  }

  private def medianMs(warmup: Int, runs: Int)(f: => Any): Double = {
    (0 until warmup).foreach(_ => f)
    val times = (0 until runs).map { _ =>
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e6
    }.sorted
    times(runs / 2)
  }

  test("argsort: median ms per key shape at 600k and 6M keys") {
    val ms = for ((n, warmup, runs) <- sizes) yield shapes.map { case (name, gen) =>
      val keys = gen(new scala.util.Random(n + name.length), n)
      val t = I64Tensor(keys)
      assert(isStableArgsort(keys, TensorOps.argsort(t).data), s"$name, n = $n")
      System.gc()
      medianMs(warmup, runs)(TensorOps.argsort(t))
    }
    println(s"\nSortBench: TensorOps.argsort, median ms (${sizes.map(s => s"${s._3} runs after ${s._2} warm-ups at ${s._1}").mkString(", ")})")
    println(f"${"keys"}%-24s" + sizes.map(s => f"${s._1}%12d").mkString)
    shapes.indices.foreach { i =>
      println(f"${shapes(i)._1}%-24s" + ms.map(col => f"${col(i)}%12.1f").mkString)
    }
  }
}
