package repro.perfbench

import java.io.File

import com.fasterxml.jackson.databind.{JsonNode, ObjectMapper}
import org.scalatest.funsuite.AnyFunSuite

import scala.jdk.CollectionConverters._

/** BENCHMARK.json and the metrics the harness prints must agree. */
class CatalogSpec extends AnyFunSuite {

  private lazy val bench: JsonNode = new ObjectMapper().readTree(new File("../BENCHMARK.json"))

  private def defs(key: String): Seq[MetricDef] =
    bench.get(key).elements().asScala.toSeq.map(n =>
      MetricDef(n.get("name").asText, n.get("unit").asText, n.get("better").asText))

  test("end-to-end metrics match BENCHMARK.json") {
    assert(defs("end_to_end") == Catalog.endToEnd)
  }

  test("per-layer metrics match BENCHMARK.json") {
    assert(defs("per_layer") == Catalog.perLayer)
  }

  test("every workload in BENCHMARK.json exists") {
    bench.get("workloads").elements().asScala.foreach { w =>
      assert(Workloads.byName(w.get("name").asText).isDefined, w.toString)
    }
  }

  test("metric names are unique") {
    val names = (Catalog.endToEnd ++ Catalog.perLayer).map(_.name.toLowerCase)
    assert(names.distinct == names)
  }
}
