package repro.tpch

import repro.{OracleTyped, SparkSpec}
import repro.core.exec.TqpConfig
import repro.core.ops.JoinAlgo
import repro.tensor.{ExecCtx, Profile}

/** The paper's headline capability (§5, C1): TQP compiles and executes all
  * 22 TPC-H queries. Every query is verified against DuckDB (same SQL, same
  * data) in interpreted (TQP) and compiled (TQPJ) mode; a representative
  * subset also runs with hash join (Algorithm 2) and hash aggregation.
  */
class TpchSpec extends SparkSpec {

  private val sf = 0.005

  lazy val tqp = TpchEnv.session(spark, sf)
  lazy val oracleTabs = TpchEnv.oracleTables(tqp)

  private lazy val queries = TpchQueries.all(sf).toMap

  private def tablesFor(q: String): Seq[(String, org.apache.spark.sql.DataFrame)] = {
    // Pass DuckDB only the tables the query mentions (faster loads).
    oracleTabs.filter { case (n, _) => q.toLowerCase.contains(n) }
  }

  for ((name, q) <- TpchQueries.all(sf)) {
    test(s"$name TQP (interpreted) matches DuckDB") {
      OracleTyped.assertEquivalent(tqp.runToDf(q, TqpConfig.interpreted), q, tablesFor(q): _*)
    }
    test(s"$name TQPJ (compiled) matches DuckDB") {
      OracleTyped.assertEquivalent(tqp.runToDf(q, TqpConfig.compiledMode), q, tablesFor(q): _*)
    }
  }

  test("every query's compiled plan is cached") {
    TpchQueries.all(sf).foreach { case (name, q) => assert(tqp.compile(q) eq tqp.compile(q), name) }
  }

  /** Whether running `q` under `cfg` enumerated join pairs for a semi or anti join's residual. */
  private def enumeratesPairs(q: String, cfg: TqpConfig): Boolean = {
    val p = new Profile
    ExecCtx.withProfile(p)(tqp.run(tqp.compile(q), cfg))
    p.records.exists(_.name == "repeatInterleave")
  }

  test("Q21's EXISTS and NOT EXISTS joins decide their `<>` residual per key, with no pair table") {
    for (cfg <- Seq(TqpConfig.interpreted, TqpConfig.compiledMode))
      assert(!enumeratesPairs(queries("Q21"), cfg), cfg)
  }

  test("residuals with two comparisons between the sides match DuckDB through the pair table") {
    val q = """
      select o_orderkey, o_custkey from orders
      where exists (select * from lineitem
                    where l_orderkey = o_orderkey and l_suppkey * 10 < o_custkey and l_partkey > o_custkey)
        and not exists (select * from lineitem
                        where l_orderkey = o_orderkey and l_suppkey * 10 > o_custkey and l_partkey < o_custkey)
      order by o_orderkey"""
    for (cfg <- Seq(TqpConfig.interpreted, TqpConfig.compiledMode)) {
      assert(enumeratesPairs(q, cfg), cfg)
      assert(tqp.run(q, cfg).numRows > 0)
      OracleTyped.assertEquivalent(tqp.runToDf(q, cfg), q, tablesFor(q): _*)
    }
  }

  // Hash-join and hash-aggregation variants on the representative set the
  // paper uses for its deep-dive experiments (§6.3).
  private val representative = Seq("Q1", "Q2", "Q6", "Q9", "Q14", "Q18")
  for (name <- representative) {
    test(s"$name with hash join (Algorithm 2) matches DuckDB") {
      val q = queries(name)
      OracleTyped.assertEquivalent(
        tqp.runToDf(q, TqpConfig(joinAlgo = JoinAlgo.Hash)), q, tablesFor(q): _*)
    }
    test(s"$name with hash aggregation matches DuckDB") {
      val q = queries(name)
      OracleTyped.assertEquivalent(
        tqp.runToDf(q, TqpConfig(hashAgg = true)), q, tablesFor(q): _*)
    }
    test(s"$name with auto join selection (OmnisciSim config) matches DuckDB") {
      val q = queries(name)
      OracleTyped.assertEquivalent(
        tqp.runToDf(q, TqpConfig(joinAlgo = JoinAlgo.Auto, hashAgg = true)), q, tablesFor(q): _*)
    }
  }

  test("TQP answers match Spark's own answers (Q1)") {
    // Cross-check the third engine: Spark executes the same optimized plans.
    val q = queries("Q1")
    def rows(df: org.apache.spark.sql.DataFrame) = df.collect().toVector.map(_.toSeq.toIndexedSeq)
    val spk = rows(spark.sql(q))
    assert(spk.nonEmpty)
    OracleTyped.compare(rows(tqp.runToDf(q, TqpConfig.interpreted)), spk)
  }
}
