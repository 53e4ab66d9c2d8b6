package repro.sparkexec

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec

/** The Spark-executor integration paths: per-partition tensor kernels via
  * mapPartitions and the Catalyst Strategy / physical operator route.
  */
class SparkExecSpec extends SparkSpec {
  import scala.jdk.CollectionConverters._

  private lazy val df = {
    val schema = StructType(Seq(
      StructField("k", LongType), StructField("v", DoubleType),
      StructField("s", StringType), StructField("d", DateType)))
    val rows = (1 to 5000).map { i =>
      Row(i.toLong % 97, i * 0.5, if (i % 4 == 0) "keep" else s"drop$i",
          java.sql.Date.valueOf(java.time.LocalDate.of(1994, 1, 1).plusDays(i % 900)))
    }
    spark.createDataFrame(rows.asJava, schema).repartition(8).cache()
  }

  test("tensorFilter matches Spark's filter (numeric predicate)") {
    val cond = "v > 100.0 and k < 50"
    val got = PartitionedTqp.tensorFilter(df, cond).collect().map(_.toString).sorted
    val exp = df.filter(cond).collect().map(_.toString).sorted
    assert(got.toSeq == exp.toSeq)
  }

  test("tensorFilter matches Spark's filter (string + date predicate)") {
    val cond = "s = 'keep' and d >= date '1994-06-01'"
    val got = PartitionedTqp.tensorFilter(df, cond).collect().map(_.toString).sorted
    val exp = df.filter(cond).collect().map(_.toString).sorted
    assert(got.toSeq == exp.toSeq)
    assert(got.nonEmpty)
  }

  test("tensorFilter matches on empty result") {
    val cond = "v < -1.0"
    assert(PartitionedTqp.tensorFilter(df, cond).collect().isEmpty)
  }

  test("tensorSumCount matches Spark's groupBy aggregation") {
    val got = PartitionedTqp.tensorSumCount(df, "k", "v").collect()
      .map(r => (r.getLong(0), math.round(r.getDouble(1) * 100) / 100.0, r.getLong(2))).sortBy(_._1)
    val exp = df.groupBy("k").agg(
        org.apache.spark.sql.functions.sum("v"), org.apache.spark.sql.functions.count("*")).collect()
      .map(r => (r.getLong(0), math.round(r.getDouble(1) * 100) / 100.0, r.getLong(2))).sortBy(_._1)
    assert(got.toSeq == exp.toSeq)
  }

  // The strategy tests need a plan whose Filter survives to physical
  // planning: over a cached relation InMemoryScans consumes
  // Project+Filter+Relation as one pattern, and over a LocalRelation the
  // optimizer's ConvertToLocalRelation evaluates the filter at compile
  // time. An RDD-backed DataFrame (LogicalRDD leaf) avoids both.
  private lazy val uncached = {
    val schema = StructType(Seq(
      StructField("k", LongType), StructField("v", DoubleType),
      StructField("s", StringType), StructField("d", DateType)))
    val rows = (1 to 5000).map { i =>
      Row(i.toLong % 97, i * 0.5, if (i % 4 == 0) "keep" else s"drop$i",
          java.sql.Date.valueOf(java.time.LocalDate.of(1994, 1, 1).plusDays(i % 900)))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
  }

  test("TqpFilterStrategy plans Filter as TqpFilterExec and results match") {
    uncached.createOrReplaceTempView("strategy_t")
    TqpFilterStrategy.install(spark)
    try {
      val q = spark.sql("select k, v from strategy_t where v > 200.0 and s <> 'keep'")
      val physical = q.queryExecution.executedPlan.toString
      assert(physical.contains("TqpFilter"), s"plan should use TqpFilterExec:\n$physical")
      val got = q.collect().map(_.toString).sorted
      TqpFilterStrategy.uninstall(spark)
      val exp = spark.sql("select k, v from strategy_t where v > 200.0 and s <> 'keep'")
        .collect().map(_.toString).sorted
      assert(got.toSeq == exp.toSeq)
      assert(got.nonEmpty)
    } finally TqpFilterStrategy.uninstall(spark)
  }

  test("TqpFilterStrategy converts null cells and filters on a date column") {
    val schema = StructType(Seq(
      StructField("k", LongType), StructField("v", DoubleType),
      StructField("s", StringType), StructField("d", DateType)))
    val rows = (1 to 2000).map { i =>
      def nullEvery(m: Int)(a: Any): Any = if (i % m == 0) null else a
      Row(nullEvery(3)(i.toLong % 97), nullEvery(5)(i * 0.5), nullEvery(7)(s"s$i"),
          nullEvery(11)(java.sql.Date.valueOf(java.time.LocalDate.of(1994, 1, 1).plusDays(i % 900))))
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 8), schema)
      .createOrReplaceTempView("strategy_nulls")
    val sql = "select * from strategy_nulls where d >= date '1994-09-01'"
    TqpFilterStrategy.install(spark)
    try {
      val q = spark.sql(sql)
      val physical = q.queryExecution.executedPlan.toString
      assert(physical.contains("TqpFilter"), s"plan should use TqpFilterExec:\n$physical")
      val got = q.collect().toSeq
      TqpFilterStrategy.uninstall(spark)
      val exp = spark.sql(sql).collect().toSeq
      assert(got == exp)
      assert((0 to 2).forall(c => got.exists(_.isNullAt(c))), "nulls must reach the output")
    } finally TqpFilterStrategy.uninstall(spark)
  }

  test("strategy leaves untranslatable predicates to Spark") {
    uncached.createOrReplaceTempView("strategy_t")
    TqpFilterStrategy.install(spark)
    try {
      // rand() is not in TQP's expression dictionary: must not be claimed.
      val q = spark.sql("select k from strategy_t where rand() >= -1.0")
      val physical = q.queryExecution.executedPlan.toString
      assert(!physical.contains("TqpFilter"))
      assert(q.collect().length == df.count())
    } finally TqpFilterStrategy.uninstall(spark)
  }
}
