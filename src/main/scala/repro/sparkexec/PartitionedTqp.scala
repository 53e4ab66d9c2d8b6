package repro.sparkexec

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.catalyst.plans.logical
import org.apache.spark.sql.types.StructType
import repro.core.compile.CatalystFrontend
import repro.core.data.TensorTable
import repro.core.expr.{ExecEnv, Expr, ExprEval}

/** Per-partition tensor execution inside Spark executors (the calibration
  * hint's integration model): each partition's rows are converted to a
  * columnar [[TensorTable]] batch, the tensor program runs on the batch,
  * and surviving rows are emitted. The distributed substrate (scheduling,
  * shuffles) stays Spark's; the per-partition operator kernels are TQP's.
  */
object PartitionedTqp {

  /** Resolve a SQL predicate against `df` and return the TQP expression and
    * the child attribute naming used for column binding.
    */
  private def compilePredicate(df: DataFrame, cond: String): (Expr, Seq[(String, org.apache.spark.sql.types.DataType)]) = {
    val analyzed = df.filter(cond).queryExecution.analyzed
    val (condition, child) = analyzed match {
      case logical.Filter(c, ch) => (c, ch)
      case other => throw new IllegalArgumentException(s"not a filter: $other")
    }
    val expr = CatalystFrontend.translateExpression(condition)
    (expr, child.output.map(a => (CatalystFrontend.varId(a), a.dataType)))
  }

  /** Tensor bitmap filter executed per partition via mapPartitions. */
  def tensorFilter(df: DataFrame, cond: String): DataFrame = {
    val (expr, fields) = compilePredicate(df, cond)
    val schema = StructType(fields.map { case (n, dt) => org.apache.spark.sql.types.StructField(n, dt) })
    val outSchema = df.schema
    val spark = df.sparkSession
    val rdd = df.rdd.mapPartitions { iter =>
      val rows = iter.toArray
      if (rows.isEmpty) Iterator.empty
      else {
        val table = TensorTable.fromRows(schema, rows)
        val mask  = ExprEval.evalMask(expr, table, ExecEnv.empty)
        rows.iterator.zipWithIndex.collect { case (r, i) if mask.data(i) => r }
      }
    }
    spark.createDataFrame(rdd, outSchema)
  }

  /** Two-phase tensor aggregation: per-partition partial scatter aggregates
    * (inside executors), then a final tensor aggregation of the partials on
    * the driver. Supports SUM/COUNT over one value column grouped by one
    * integer key column — enough to demonstrate the execution model.
    */
  def tensorSumCount(df: DataFrame, keyCol: String, valCol: String): DataFrame = {
    val spark = df.sparkSession
    val ki = df.schema.fieldIndex(keyCol)
    val vi = df.schema.fieldIndex(valCol)
    val partials = df.rdd.mapPartitions { iter =>
      val rows = iter.toArray
      if (rows.isEmpty) Iterator.empty
      else {
        import repro.core.ops.KeyEncoder
        import repro.tensor._
        val keys = I64Tensor(rows.map(r => r.getLong(ki)))
        val vals = F64Tensor(rows.map(r => r.get(vi) match {
          case d: java.lang.Double => d.doubleValue
          case l: java.lang.Long   => l.toDouble
          case i: java.lang.Integer => i.toDouble
          case o => throw new IllegalArgumentException(s"bad value $o")
        }))
        val g = KeyEncoder.groupsOf(Seq(keys))
        val sums   = TensorOps.scatterAdd(vals, g.rowGroup, g.nGroups)
        val counts = TensorOps.bincount(g.rowGroup, g.nGroups)
        (0 until g.nGroups).iterator.map { s =>
          Row(keys.data(g.repRows.data(s).toInt), sums.data(s), counts.data(s))
        }
      }
    }
    // Final tensor aggregation of partials on the driver.
    val collected = partials.collect()
    import repro.core.ops.KeyEncoder
    import repro.tensor._
    val out =
      if (collected.isEmpty) Array.empty[Row]
      else {
        val keys = I64Tensor(collected.map(_.getLong(0)))
        val g = KeyEncoder.groupsOf(Seq(keys))
        val sums   = TensorOps.scatterAdd(F64Tensor(collected.map(_.getDouble(1))), g.rowGroup, g.nGroups)
        val counts = TensorOps.scatterAdd(I64Tensor(collected.map(_.getLong(2))), g.rowGroup, g.nGroups)
        (0 until g.nGroups).map { s =>
          Row(keys.data(g.repRows.data(s).toInt), sums.data(s), counts.data(s))
        }.toArray
      }
    import scala.jdk.CollectionConverters._
    spark.createDataFrame(out.toSeq.asJava, StructType(Seq(
      org.apache.spark.sql.types.StructField(keyCol, org.apache.spark.sql.types.LongType),
      org.apache.spark.sql.types.StructField(s"sum_$valCol", org.apache.spark.sql.types.DoubleType),
      org.apache.spark.sql.types.StructField("cnt", org.apache.spark.sql.types.LongType))))
  }
}
