package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import repro.{OracleTyped, SparkSpec}
import repro.core.compile.UnsupportedPlanException
import repro.core.exec.TqpConfig
import repro.core.ir.IROp
import repro.core.ops.JoinAlgo

/** The compiled-plan cache of `TqpSession.compile`: what it returns again,
  * what makes it compile anew, and what it never stores. Runs on its own
  * session and table names, so no other suite's plans or views are touched.
  */
class PlanCacheSpec extends SparkSpec {
  import scala.jdk.CollectionConverters._

  private val configs = Seq(
    "interpreted-sort" -> TqpConfig.interpreted,
    "compiled-sort"    -> TqpConfig.compiledMode,
    "interpreted-hash" -> TqpConfig(joinAlgo = JoinAlgo.Hash),
    "compiled-hashagg" -> TqpConfig(compiled = true, hashAgg = true),
  )

  private def frame(n: Int, extra: Boolean = false): DataFrame = {
    val fields = Seq(StructField("pk", LongType), StructField("pv", DoubleType), StructField("pd", DateType)) ++
      (if (extra) Seq(StructField("pw", LongType)) else Nil)
    val rows = (1 to n).map { i =>
      val base = Seq(i.toLong % 7, i * 1.5, java.sql.Date.valueOf(java.time.LocalDate.of(1994, 1, 1).plusDays(i)))
      Row.fromSeq(if (extra) base :+ i.toLong * 10 else base)
    }
    spark.createDataFrame(rows.asJava, StructType(fields))
  }

  private def session(n: Int = 50): TqpSession = {
    val s = new TqpSession(spark)
    s.register("pc", frame(n))
    s
  }

  private def checkOracle(s: TqpSession, sql: String, cfg: TqpConfig): Unit =
    OracleTyped.assertEquivalent(s.runToDf(s.compile(sql), cfg), sql, "pc" -> spark.table("pc"))

  test("a repeated text returns the same plan, and it runs right in every config") {
    val s = session()
    val sql = "select pk, sum(pv) as sv, count(*) as c from pc where pv > (select avg(pv) from pc) group by pk order by pk"
    val ir = s.compile(sql)
    assert(s.compile(sql) eq ir)
    configs.foreach { case (name, cfg) =>
      withClue(s"[$name] ")(checkOracle(s, sql, cfg))
      assert(s.compile(sql) eq ir, name)
    }
  }

  test("re-registering a name with other rows or other columns compiles a new plan") {
    val s = session(3)
    val sql = "select sum(pk) as x, count(*) as c from pc"
    val first = s.compile(sql)
    assert(s.compile(sql) eq first)
    s.register("pc", frame(20))
    val second = s.compile(sql)
    assert(second ne first)
    checkOracle(s, sql, TqpConfig.interpreted)
    s.register("pc", frame(30, extra = true))
    val third = s.compile(sql)
    assert(third ne second)
    checkOracle(s, sql, TqpConfig.compiledMode)
    assert(s.run(sql).column("c").i64.data.toSeq == Seq(30L))
  }

  test("a changed SQL conf compiles a new plan") {
    val s = session()
    val sql = "select pk, pv from pc where pv > 10.0 + 20.0 order by pk, pv"
    val folded = s.compile(sql)
    val key = "spark.sql.optimizer.excludedRules"
    val old = spark.conf.getOption(key)
    try {
      spark.conf.set(key, "org.apache.spark.sql.catalyst.optimizer.ConstantFolding")
      val unfolded = s.compile(sql)
      assert(unfolded ne folded)
      assert(IROp.treeString(unfolded.plan) != IROp.treeString(folded.plan))
      assert(s.compile(sql) eq unfolded)
      checkOracle(s, sql, TqpConfig.interpreted)
    } finally old.fold(spark.conf.unset(key))(spark.conf.set(key, _))
    assert(s.compile(sql) eq folded)
  }

  test("a query that cannot compile throws on every call") {
    val s = session()
    val sql = "select pk, case when pk > 3 then 'big' else 'small' end as c from pc"
    (1 to 3).foreach(_ => intercept[UnsupportedPlanException](s.compile(sql)))
  }

  test("a value folded at optimization time is never cached") {
    val s = session()
    val sql = "select count(*) as n from pc where pd <= current_date()"
    val ir = s.compile(sql)
    assert(s.compile(sql) ne ir)
    checkOracle(s, sql, TqpConfig.interpreted)
  }

  test("the 1025th distinct text evicts the first") {
    val s = session()
    def sql(i: Int) = s"select pk from pc where pk < $i"
    val irs = (0 until TqpSession.PlanCacheSize).map(i => s.compile(sql(i)))
    assert(s.compile(sql(0)) eq irs(0))
    s.compile(sql(TqpSession.PlanCacheSize))
    assert(s.compile(sql(1)) eq irs(1))
    assert(s.compile(sql(TqpSession.PlanCacheSize - 1)) eq irs.last)
    assert(s.compile(sql(0)) ne irs(0))
  }
}
