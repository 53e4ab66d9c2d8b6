package repro.bench

import repro.SparkSpec

/** Table 2 reproduction: all 22 TPC-H queries across the eight engine
  * columns. Shape assertions encode the paper's key takeaways (§6.1, §6.2).
  */
class Table2Bench extends SparkSpec {

  private val sf = 0.1

  test("Table 2: TPC-H at SF=0.1 across engines") {
    val rows = Table2Runner.run(spark, sf)
    Table2Runner.print(rows, sf)

    assert(rows.length == 22, "all 22 queries must run")
    assert(rows.forall(_.tqpMs.isDefined), "TQP supports all 22 queries")

    // Support matrices mirror the paper: Blazing 17/22, Omnisci 18/22.
    assert(rows.count(_.blazingMs.isDefined) == 17)
    assert(rows.count(_.omnisciMs.isDefined) == 18)

    // Takeaway (1): TQP beats Spark on most queries (paper: all but Q1/Q13/Q21).
    val beatSpark = rows.count(r => r.tqpMs.get < r.sparkMs.get)
    assert(beatSpark >= 15, s"TQP should beat Spark on most queries, won $beatSpark/22")

    // Takeaway (3): DuckDB generally beats TQP on CPU, but TQP is not
    // uniformly worse (paper: TQP better on 3 queries).
    val duckWins = rows.count(r => r.duckMs.get < r.tqpMs.get)
    assert(duckWins >= 11, s"DuckDB should win most CPU comparisons, won $duckWins/22")

    // TQPJ ≤ TQP (compiled no slower than interpreted) on the clear majority.
    val jitPairs = rows.filter(_.tqpjMs.isDefined)
    val jitWins = jitPairs.count(r => r.tqpjMs.get <= r.tqpMs.get * 1.15)
    assert(jitWins >= jitPairs.length - 4, s"TQPJ should track or beat TQP, ok on $jitWins/${jitPairs.length}")

    // Takeaway (5): on GPU, TQP beats BlazingSQL everywhere it runs, and
    // OmnisciDB on most queries.
    val blazingPairs = rows.filter(_.blazingMs.isDefined)
    assert(blazingPairs.forall(r => r.tqpGpuMs.get < r.blazingMs.get),
      "TQP-GPU must beat BlazingSim on all supported queries")
    val omnisciPairs = rows.filter(_.omnisciMs.isDefined)
    val omnisciWins = omnisciPairs.count(r => r.tqpGpuMs.get < r.omnisciMs.get)
    assert(omnisciWins >= omnisciPairs.length - 4,
      s"TQP-GPU should beat OmnisciSim on most queries, won $omnisciWins/${omnisciPairs.length}")

    // GPU ≫ CPU for TQP (paper: 1.5×–48×).
    val gpuFaster = rows.count(r => r.tqpGpuMs.get < r.tqpMs.get)
    assert(gpuFaster >= 20, s"simulated GPU should beat 1-core CPU nearly everywhere, won $gpuFaster/22")
  }
}
