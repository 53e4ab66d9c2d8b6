package repro.core

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.{OracleTyped, SparkSpec}
import repro.core.exec.TqpConfig
import repro.core.ops.JoinAlgo

/** End-to-end smoke tests of the TQP pipeline (frontend → IR → rules →
  * planner → executor) on small handcrafted tables, each checked against
  * DuckDB via the typed oracle. Exercised in all four engine configs.
  */
class TqpSmokeSpec extends SparkSpec {
  import scala.jdk.CollectionConverters._

  lazy val tqp: TqpSession = {
    val s = new TqpSession(spark)
    val tSchema = StructType(Seq(
      StructField("k", LongType), StructField("v", DoubleType),
      StructField("s", StringType), StructField("d", DateType)))
    val rows = (1 to 100).map { i =>
      Row(i.toLong % 13, i * 1.5, if (i % 3 == 0) "foo" else s"bar$i",
          java.sql.Date.valueOf(java.time.LocalDate.of(1994, 1, 1).plusDays(i)))
    }
    s.register("t", spark.createDataFrame(rows.asJava, tSchema))
    val uSchema = StructType(Seq(
      StructField("k", LongType), StructField("w", LongType), StructField("tag", StringType)))
    val uRows = (1 to 30).map(i => Row(i.toLong % 7, i.toLong * 10, if (i % 2 == 0) "even" else "odd"))
    s.register("u", spark.createDataFrame(uRows.asJava, uSchema))
    s
  }

  private val configs = Seq(
    "interpreted-sort" -> TqpConfig.interpreted,
    "compiled-sort"    -> TqpConfig.compiledMode,
    "interpreted-hash" -> TqpConfig(joinAlgo = JoinAlgo.Hash),
    "compiled-hashagg" -> TqpConfig(compiled = true, hashAgg = true),
  )

  private def check(name: String, sql: String): Unit =
    configs.foreach { case (cname, cfg) =>
      test(s"$name [$cname]") {
        OracleTyped.assertEquivalent(tqp.runToDf(sql, cfg), sql,
          "t" -> spark.table("t"), "u" -> spark.table("u"))
      }
    }

  check("filter + project",
    "select k, v * 2.0 as dv from t where v > 30.0 and k < 9")

  check("string predicates",
    "select k, s from t where s like 'bar%' and s <> 'bar11'")

  check("date filter",
    "select k, d from t where d >= date '1994-02-01' and d < date '1994-03-01'")

  check("case / in / arithmetic",
    "select k, case when k in (1,2,3) then v else -v end as x, (v + 1.0) / (k + 1) as y from t")

  check("global aggregate",
    "select sum(v) as s, avg(v) as a, min(v) as mn, max(v) as mx, count(*) as c from t where k <> 5")

  check("count(*) over a filter",
    "select count(*) as c from t where k > 3")

  check("group-by aggregate",
    "select k, sum(v) as s, count(*) as c, avg(v) as a from t group by k order by k")

  check("group-by on string",
    "select s, count(*) as c, max(v) as mx from t where k < 10 group by s order by c desc, s")

  check("inner join",
    "select t.k as k, v, w from t, u where t.k = u.k and v > 10.0 order by k, v, w")

  check("join + aggregate",
    "select tag, sum(v * w) as sv from t, u where t.k = u.k group by tag order by tag")

  check("left outer join counts",
    "select t.k as k, count(w) as cw, count(*) as c from t left outer join u on t.k = u.k and u.w > 50 group by t.k order by k")

  // Unmatched rows have a NULL tag, stored as some other row's tag.
  check("group by a nullable key from an outer join",
    "select u.tag as tag, count(*) as c, sum(v) as sv from t left outer join u on t.k = u.k group by u.tag order by tag")

  check("left semi (exists)",
    "select k, v from t where exists (select * from u where u.k = t.k and u.w > 100) order by k, v")

  check("left anti (not exists)",
    "select k, v from t where not exists (select * from u where u.k = t.k) order by k, v")

  check("left semi with a cross-side residual",
    "select k, v from t where exists (select * from u where u.k = t.k and u.w > t.v * 3) order by k, v")

  check("left anti with a cross-side residual",
    "select k, v from t where not exists (select * from u where u.k = t.k and u.w > t.v * 2) order by k, v")

  check("existence join (exists ... or ...)",
    "select k, v from t where exists (select * from u where u.k = t.k and u.w > t.v * 3) or v > 140 order by k, v")

  // NOT IN is a null-aware anti join; a numeric CASE without ELSE makes NULLs.
  check("not in with a NULL in the subquery",
    "select k, v from t where k not in (select case when w > 100 then k end from u) order by k, v")

  check("not in with NULLs on the left",
    "select k, v from t where (case when k > 3 then k end) not in (select k from u where w > 100) order by k, v")

  check("not in over an empty subquery",
    "select k, v from t where (case when k > 3 then k end) not in (select k from u where w < 0) order by k, v")

  check("scalar subquery",
    "select k, v from t where v > (select avg(v) from t) order by k, v")

  check("count distinct",
    "select k, count(distinct s) as cd from t group by k order by k")

  check("order by multiple keys with desc",
    "select k, v, s from t where k < 6 order by k desc, v asc limit 17")

  check("non-equi residual join",
    "select t.k as k, v, w from t, u where t.k = u.k and v < w order by k, v, w")

  check("division by zero yields null",
    "select k, v / (k - 5) as q, v / (v - v) as z, k / 0 as c from t order by k, v")

  check("year extraction",
    "select extract(year from d) as y, count(*) as c from t group by extract(year from d) order by y")

  test("unsupported operator raises") {
    // Window functions are outside TQP's operator dictionary.
    val err = intercept[Exception] {
      tqp.run("select k, row_number() over (partition by k order by v) as rn from t")
    }
    assert(err.getMessage.toLowerCase.contains("unsupported"))
  }

  test("CASE over strings or booleans fails at compile time, in both modes") {
    val sqls = Seq(
      "select k, case when k > 5 then s else 'none' end as c from t",
      "select k, case when k > 5 then s = 'foo' else v > 30.0 end as c from t")
    for (sql <- sqls; cfg <- Seq(TqpConfig.interpreted, TqpConfig.compiledMode)) {
      val err = intercept[repro.core.compile.UnsupportedPlanException](tqp.run(sql, cfg))
      assert(err.getMessage.startsWith("CASE/IF/COALESCE over"), err.getMessage)
    }
  }

  test("register refuses a second table with the same column names, and re-registers a name") {
    val s = new TqpSession(spark)
    val schema = StructType(Seq(StructField("alias_a", LongType), StructField("alias_b", DoubleType)))
    def df(n: Int) = spark.createDataFrame((1 to n).map(i => Row(i.toLong, i * 0.5)).asJava, schema)
    s.register("alias_one", df(3))
    val err = intercept[IllegalArgumentException](s.register("alias_two", df(4)))
    assert(err.getMessage.contains("alias_one"))
    assert(s.registeredTables == Seq("alias_one"))
    s.register("alias_one", df(5))
    assert(s.tensorTable("alias_one").numRows == 5)
    assert(s.run("select sum(alias_a) as x from alias_one").column("x").i64.data.toSeq == Seq(15L))
  }

  test("NOT IN plans as a keyed null-aware anti join, EXISTS ... OR as an existence join") {
    val notIn = repro.core.ir.IROp.treeString(
      tqp.compile("select k from t where k not in (select w from u)").plan)
    assert(notIn.contains("Join(LeftAnti null-aware, keys=") && !notIn.contains("Cross"), notIn)
    val orExists = repro.core.ir.IROp.treeString(
      tqp.compile("select k from t where exists (select * from u where u.k = t.k) or v > 100").plan)
    assert(orExists.contains("Join(Existence("), orExists)
  }

  test("IR tree renders") {
    val ir = tqp.compile("select k, sum(v) as s from t where v > 1.0 group by k order by k limit 5")
    val s = repro.core.ir.IROp.treeString(ir.plan)
    assert(s.contains("Aggregate") && s.contains("Filter") && s.contains("Scan"))
  }
}
