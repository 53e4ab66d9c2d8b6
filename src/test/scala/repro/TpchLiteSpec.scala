package repro

import org.apache.spark.sql.functions._

/** Sanity of the dbgen substitute: row counts scale with SF, foreign keys
  * stay in range, and the text-pool columns give the LIKE predicates of the
  * 22 queries non-degenerate selectivities.
  */
class TpchLiteSpec extends SparkSpec {

  private val sf = 0.01
  private lazy val t = TpchLite.all(spark, sf).map { case (k, v) => (k, v.cache()) }

  test("row counts scale like dbgen") {
    assert(t("lineitem").count() == 60000)
    assert(t("orders").count() == 15000)
    assert(t("customer").count() == 1500)
    assert(t("part").count() == 2000)
    assert(t("supplier").count() == 100)
    assert(t("partsupp").count() == 8000)
    assert(t("nation").count() == 25)
    assert(t("region").count() == 5)
  }

  test("foreign keys stay in their parent domains") {
    def range(df: org.apache.spark.sql.DataFrame, c: String): (Long, Long) = {
      val r = df.agg(min(col(c)), max(col(c))).head()
      (r.getLong(0), r.getLong(1))
    }
    assert(range(t("lineitem"), "l_orderkey")._2 <= 15000)
    assert(range(t("lineitem"), "l_partkey")._2 <= 2000)
    assert(range(t("lineitem"), "l_suppkey")._2 <= 100)
    assert(range(t("orders"), "o_custkey")._2 <= 1500)
    assert(range(t("partsupp"), "ps_suppkey")._2 <= 100)
    val nk = t("customer").agg(min(col("c_nationkey")), max(col("c_nationkey"))).head()
    assert(nk.getInt(0) >= 0 && nk.getInt(1) < 25)
  }

  test("partsupp (partkey, suppkey) pairs are distinct") {
    assert(t("partsupp").select("ps_partkey", "ps_suppkey").distinct().count() ==
      t("partsupp").count())
  }

  test("a third of customers never order (Q13/Q22 shape)") {
    val withOrders = t("orders").select("o_custkey").distinct().count()
    val all = t("customer").count()
    assert(withOrders < all, "some customers must have no orders")
    assert(withOrders > all / 2, "most customers have orders")
  }

  test("LIKE-predicate selectivities are non-degenerate") {
    def frac(df: org.apache.spark.sql.DataFrame, cond: String): Double =
      df.filter(cond).count().toDouble / df.count()
    val q13 = frac(t("orders"), "o_comment like '%special%requests%'")
    assert(q13 > 0.001 && q13 < 0.2, s"Q13 pattern fraction $q13")
    val q9 = frac(t("part"), "p_name like '%green%'")
    assert(q9 > 0.05 && q9 < 0.5, s"Q9 pattern fraction $q9")
    val q16 = frac(t("supplier"), "s_comment like '%Customer%Complaints%'")
    assert(q16 > 0.0 && q16 < 0.2, s"Q16 pattern fraction $q16")
    val brass = frac(t("part"), "p_type like '%BRASS'")
    assert(brass > 0.1 && brass < 0.3, s"%BRASS fraction $brass")
  }

  test("phone country codes derive from nationkey") {
    val bad = t("customer")
      .filter(expr("cast(substring(c_phone, 1, 2) as int) <> c_nationkey + 10"))
      .count()
    assert(bad == 0)
  }

  test("dates stay in TPC-H's 1992-1998 window") {
    val r = t("lineitem").agg(min(col("l_shipdate")), max(col("l_shipdate"))).head()
    assert(r.getDate(0).toLocalDate.getYear >= 1992)
    assert(r.getDate(1).toLocalDate.getYear <= 1998)
  }

  test("generators are deterministic in (sf, seed)") {
    val a = TpchLite.part(spark, 0.01).collect().map(_.toString).sorted
    val b = TpchLite.part(spark, 0.01).collect().map(_.toString).sorted
    assert(a.toSeq == b.toSeq)
  }
}
