package repro.engines

import repro.SparkSpec
import repro.tensor.{CpuDevice, Profile}
import repro.tpch.{TpchEnv, TpchQueries}

/** The comparator simulators: support matrices match Table 2, every engine
  * really executes (answers are produced), and the algorithmic distinctions
  * show in the op traces (OmnisciSim has no comparison sorts in
  * aggregation; BlazingSim pays more per byte).
  */
class EngineSimSpec extends SparkSpec {

  private val sf = 0.005
  private lazy val tqp = TpchEnv.session(spark, sf)
  private lazy val queries = TpchQueries.all(sf).toMap

  test("support matrices match the paper") {
    val all = (1 to 22).map(i => s"Q$i").toSet
    assert((all -- EngineSim.blazingUnsupported).size == 17)
    assert((all -- EngineSim.omnisciUnsupported).size == 18)
    assert((all -- EngineSim.tqpjUnsupported).size == 21)
  }

  test("unsupported queries return None") {
    val ir = tqp.compile(queries("Q22"))
    assert(EngineSim.simulatedMs(tqp, "Q22", ir, EngineSim.blazing).isEmpty)
    assert(EngineSim.simulatedMs(tqp, "Q22", ir, EngineSim.omnisci).isEmpty)
    assert(EngineSim.simulatedMs(tqp, "Q22", ir, EngineSim.tqpGpu).isDefined)
  }

  test("simulated engines produce positive times on supported queries") {
    val ir = tqp.compile(queries("Q6"))
    for (e <- Seq(EngineSim.tqpGpu, EngineSim.tqpjGpu, EngineSim.omnisci, EngineSim.blazing)) {
      val ms = EngineSim.simulatedMs(tqp, "Q6", ir, e)
      assert(ms.exists(_ > 0), s"${e.name} should time Q6")
    }
  }

  test("OmnisciSim's hash aggregation avoids the sort the TQP plan pays") {
    val ir = tqp.compile(queries("Q1"))
    val pTqp = new Profile
    tqp.runOn(ir, EngineSim.tqpGpu.cfg, CpuDevice.single, Some(pTqp))
    val pOmni = new Profile
    tqp.runOn(ir, EngineSim.omnisci.cfg, CpuDevice.single, Some(pOmni))
    import repro.tensor.OpClass
    val tqpSortBytes  = pTqp.byClass.getOrElse(OpClass.Sort, 0L)
    val omniSortBytes = pOmni.byClass.getOrElse(OpClass.Sort, 0L)
    assert(omniSortBytes < tqpSortBytes,
      s"hash plan sorts $omniSortBytes bytes vs sort plan $tqpSortBytes")
  }

  test("BlazingSim is slower than TQP-GPU on the same query (kernel stack)") {
    val ir = tqp.compile(queries("Q3"))
    val b = EngineSim.simulatedMs(tqp, "Q3", ir, EngineSim.blazing).get
    val t = EngineSim.simulatedMs(tqp, "Q3", ir, EngineSim.tqpGpu).get
    assert(b > t)
  }

  test("fused TQPJ traces cost no more than interpreted TQP traces on GPU") {
    val ir = tqp.compile(queries("Q6"))
    val t  = EngineSim.simulatedMs(tqp, "Q6", ir, EngineSim.tqpGpu).get
    val tj = EngineSim.simulatedMs(tqp, "Q6", ir, EngineSim.tqpjGpu).get
    assert(tj <= t * 1.05, s"TQPJ $tj vs TQP $t")
  }
}
