package repro.bench

import repro.SparkSpec
import repro.tpch.{TpchEnv, TpchQueries}

/** Compile microbenchmark: `TqpSession.compile` on the 22 TPC-H queries at
  * SF=0.1, cold (Catalyst, the TQP frontend and the IR rules, after a
  * `register` has emptied the plan cache) and cached (a repeated text),
  * printing the median wall-clock ms of each. The paper reports compilation
  * apart from execution (§6.8); this sizes it without a full TPC-H run.
  * No time is asserted.
  *
  *   sbt "bench/testOnly repro.bench.CompileBench"
  */
class CompileBench extends SparkSpec {

  private val sf = 0.1
  private val (warmup, runs) = (3, 9)

  private def medianMs(before: => Unit)(f: => Any): Double = {
    val times = (0 until warmup + runs).map { _ =>
      before
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e6
    }.drop(warmup).sorted
    times(runs / 2)
  }

  test("compile: median ms per TPC-H query, cold and cached") {
    val tqp = TpchEnv.session(spark, sf)
    // Re-registering region with its own rows changes no data and empties the cache.
    val region = tqp.spark.table("region")
    def clear(): Unit = tqp.register("region", region)
    val ms = TpchQueries.all(sf).map { case (name, sql) =>
      val cold = medianMs(clear())(tqp.compile(sql))
      val ir = tqp.compile(sql)
      assert(tqp.compile(sql) eq ir, s"$name is not cached")
      (name, cold, medianMs(())(tqp.compile(sql)))
    }
    println(s"\nCompileBench: TqpSession.compile at SF=$sf, median ms of $runs runs after $warmup warm-ups")
    println(f"${"query"}%-6s${"cold"}%10s${"cached"}%10s")
    ms.foreach { case (n, c, h) => println(f"$n%-6s$c%10.2f$h%10.3f") }
    println(f"${"sum"}%-6s${ms.map(_._2).sum}%10.2f${ms.map(_._3).sum}%10.3f")
  }
}
