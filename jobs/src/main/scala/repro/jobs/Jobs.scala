package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench._

/** spark-submit entrypoints, one per evaluation table.
  *
  * Usage: spark-submit --class repro.jobs.Table2Job repro-jobs.jar [sf]
  */
private[jobs] object JobSpark {
  def session(): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("tqp-repro")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def sfOf(args: Array[String], default: Double = 0.1): Double =
    args.headOption.map(_.toDouble).getOrElse(default)
}

/** Table 1: filter microbenchmark (no Spark needed beyond the harness). */
object Table1Job {
  def main(args: Array[String]): Unit =
    Table1Runner.print(Table1Runner.run())
}

/** Table 2: full TPC-H across the eight engine columns. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session()
    val sf = JobSpark.sfOf(args)
    Table2Runner.print(Table2Runner.run(spark, sf), sf)
    spark.stop()
  }
}

/** Table 3: hand-optimized plans for Q1/Q6/Q9/Q14. */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session()
    val sf = JobSpark.sfOf(args)
    Table3Runner.print(Table3Runner.run(spark, sf), sf)
    spark.stop()
  }
}

/** Table 4: Q6 portability across simulated backends. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session()
    val sf = JobSpark.sfOf(args)
    Table4Runner.print(Table4Runner.run(spark, sf), sf)
    spark.stop()
  }
}

/** Table 5: lines-of-code comparison. */
object Table5Job {
  def main(args: Array[String]): Unit =
    Table5Runner.print(Table5Runner.run())
}

/** §6.7 prediction query (Figure 8 as a table). */
object PredictionJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSpark.session()
    val sf = JobSpark.sfOf(args)
    PredictionRunner.print(PredictionRunner.run(spark, sf), sf)
    spark.stop()
  }
}
