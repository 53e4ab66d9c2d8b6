package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("p90 is reported only with at least 10 samples beyond it") {
    assert(Stats.beyond(99, 90) == 9 && !Stats.tailSupported(99, 90))
    assert(Stats.beyond(100, 90) == 10 && Stats.tailSupported(100, 90))
    assert(Stats.beyond(110, 90) == 11)
    assert(!Stats.tailSupported(22 * 4, 90), "four TPC-H passes are too few for p90")
    assert(Stats.tailSupported(22 * 5, 90))
  }

  test("nearest-rank percentile and median") {
    val xs = (1 to 100).map(_.toDouble).reverse
    assert(Stats.percentile(xs, 90) == 90.0)
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(Seq(7.0), 90) == 7.0)
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }

  test("geomean weighs every request kind equally") {
    assert(math.abs(Stats.geomean(Seq(1.0, 100.0)) - 10.0) < 1e-12)
    val byKind = Map("Q1" -> Seq.fill(50)(400.0), "Q6" -> Seq(4.0, 4.0, 9999.0))
    assert(math.abs(Stats.geomeanOfMedians(byKind) - 40.0) < 1e-9)
    intercept[IllegalArgumentException](Stats.geomean(Seq(0.0, 1.0)))
  }

  test("error rate counts failed requests against attempted ones") {
    assert(Stats.errorRate(0, 44) == 0.0)
    assert(Stats.errorRate(2, 8) == 0.25)
    intercept[IllegalArgumentException](Stats.errorRate(0, 0))
    intercept[IllegalArgumentException](Stats.errorRate(3, 2))
  }

  test("arguments follow the benchmark's command line") {
    val a = Main.parse(Seq("--workload", "tpch-tqp", "--seed", "7", "--seconds", "14",
                           "--trace", "1", "--work-dir", "out")).toOption.get
    assert(a.workload == "tpch-tqp" && a.seed == 7 && a.seconds == 14.0 && a.trace && a.commit == "unknown")
    assert(Main.parse(Seq("--workload", "x", "--seed", "1", "--seconds", "1", "--trace", "2",
                          "--work-dir", "out")).isLeft)
    assert(Main.parse(Seq("--workload", "x")).isLeft)
  }

  test("latency metrics pool every request and take the geomean of per-kind medians") {
    val s = Seq(Main.Sample("a", 1.0, ok = true), Main.Sample("a", 3.0, ok = true),
                Main.Sample("b", 100.0, ok = true))
    val m = Main.latencyMetrics(s)
    assert(m("latency_ms_p50") == 3.0)
    assert(m("latency_ms_p90") == 100.0)
    assert(math.abs(m("latency_ms_geomean") - math.sqrt(2.0 * 100.0)) < 1e-9)
  }
}
