package repro.bench

/** Measurement protocol from §6: repeated runs, first portion as warm-up,
  * median of the rest. Run counts are scaled down from the paper's 5+5 to
  * fit the container budget; the constant is in one place so EXPERIMENTS.md
  * can state it.
  */
object Measure {

  val Warmup   = 2
  val Measured = 3

  /** Median wall-clock milliseconds of `Measured` runs after `Warmup`.
    * A GC is requested first: the suites run many engines in one JVM and
    * collector debt from a previous engine otherwise bleeds into the next
    * measurement.
    */
  def medianMs[A](f: => A): Double = {
    System.gc()
    var i = 0
    while (i < Warmup) { f; i += 1 }
    median((0 until Measured).map(_ => timeMs(f)))
  }

  /** Median wall-clock milliseconds of `f` and of `g`, timed alternately
    * (f, g, f, g, …) after `Warmup` runs of each, so that a drift in machine
    * speed during the measurement hits both alike.
    */
  def alternatingMedianMs[A, B](f: => A, g: => B): (Double, Double) = {
    System.gc()
    var i = 0
    while (i < Warmup) { f; g; i += 1 }
    val (tf, tg) = (0 until Measured).map(_ => (timeMs(f), timeMs(g))).unzip
    (median(tf), median(tg))
  }

  private def timeMs[A](f: => A): Double = {
    val t0 = System.nanoTime()
    f
    (System.nanoTime() - t0) / 1e6
  }

  private def median(times: Seq[Double]): Double = times.sorted.apply(times.length / 2)

  /** One formatted row of a results table. */
  def fmt(v: Option[Double]): String = v match {
    case None    => "N/A"
    case Some(d) if d >= 100 => f"$d%.0f"
    case Some(d) if d >= 10  => f"$d%.1f"
    case Some(d) => f"$d%.2f"
  }

  def printTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    println()
    println(s"== $title ==")
    println(line(header))
    println(widths.map("-" * _).mkString("  "))
    rows.foreach(r => println(line(r)))
    println()
  }
}
