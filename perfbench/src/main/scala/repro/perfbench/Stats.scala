package repro.perfbench

/** Summary statistics the benchmark reports. Pure functions, unit-tested. */
object Stats {

  /** A tail percentile is reported only with at least this many samples beyond it. */
  val MinBeyond = 10

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Rank (1-based) of the nearest-rank `p`-th percentile of `n` samples. */
  def rank(n: Int, p: Double): Int = math.max(1, math.ceil(p / 100.0 * n - 1e-9).toInt)

  /** Nearest-rank percentile: the smallest sample with at least p% of samples at or below it. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    xs.sorted.apply(rank(xs.length, p) - 1)
  }

  /** Samples strictly beyond the `p`-th percentile's rank. */
  def beyond(n: Int, p: Double): Int = n - rank(n, p)

  /** True when the `p`-th percentile of `n` samples has enough samples beyond it to be reported. */
  def tailSupported(n: Int, p: Double): Boolean = beyond(n, p) >= MinBeyond

  def geomean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty && xs.forall(_ > 0), s"geomean needs positive samples, got $xs")
    math.exp(xs.map(math.log).sum / xs.length)
  }

  /** Geometric mean of each request kind's median latency: every kind counts equally. */
  def geomeanOfMedians(byKind: Map[String, Seq[Double]]): Double =
    geomean(byKind.values.map(median).toSeq)

  def errorRate(failed: Long, attempted: Long): Double = {
    require(attempted > 0 && failed >= 0 && failed <= attempted, s"bad counts $failed/$attempted")
    failed.toDouble / attempted
  }
}
