package repro.sparkexec

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.catalyst.{CatalystTypeConverters, InternalRow}
import org.apache.spark.sql.catalyst.expressions.{Attribute, Expression => CExpr}
import org.apache.spark.sql.catalyst.plans.logical
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.{SparkPlan, SparkStrategy, UnaryExecNode}
import org.apache.spark.sql.types._
import repro.core.compile.CatalystFrontend
import repro.core.data.TensorTable
import repro.core.expr.{ExecEnv, ExprEval}

/** The paper's physical-operator extension point (system-prompt "Layering"):
  * a Catalyst `Strategy` that plans logical `Filter`s whose predicates TQP
  * can compile into [[TqpFilterExec]] — a `SparkPlan` that evaluates the
  * predicate as a tensor bitmap kernel per partition inside executors.
  * Registered via `spark.experimental.extraStrategies`.
  */
object TqpFilterStrategy extends SparkStrategy {

  private def translatable(cond: CExpr, output: Seq[Attribute]): Boolean =
    try {
      CatalystFrontend.translateExpression(cond)
      output.forall(a => supportedType(a.dataType))
    } catch { case _: Exception => false }

  private def supportedType(dt: DataType): Boolean = dt match {
    case LongType | IntegerType | DoubleType | FloatType | DateType | StringType | BooleanType => true
    case _ => false
  }

  override def apply(plan: LogicalPlan): Seq[SparkPlan] = plan match {
    case logical.Filter(cond, child) if translatable(cond, child.output) =>
      TqpFilterExec(cond, planLater(child)) :: Nil
    case _ => Nil
  }

  def install(spark: SparkSession): Unit =
    if (!spark.experimental.extraStrategies.contains(this))
      spark.experimental.extraStrategies = spark.experimental.extraStrategies :+ this

  def uninstall(spark: SparkSession): Unit =
    spark.experimental.extraStrategies =
      spark.experimental.extraStrategies.filterNot(_ == this)
}

/** Tensor bitmap filter as a physical Spark operator: per partition, the
  * child's rows are transposed into column tensors by
  * [[TensorTable.fromRows]] (§4.1), the predicate is
  * evaluated with the §5.1 expression machinery into a bitmap (§3.1), and
  * the selected rows stream out.
  */
final case class TqpFilterExec(condition: CExpr, child: SparkPlan) extends UnaryExecNode {

  override def output: Seq[Attribute] = child.output

  override protected def withNewChildInternal(newChild: SparkPlan): TqpFilterExec =
    copy(child = newChild)

  override protected def doExecute(): RDD[InternalRow] = {
    val expr   = CatalystFrontend.translateExpression(condition)
    val schema = StructType(child.output.map(a => StructField(CatalystFrontend.varId(a), a.dataType)))
    child.execute().mapPartitions { iter =>
      val rows = iter.map(_.copy()).toArray
      if (rows.isEmpty) Iterator.empty
      else {
        val toRow = CatalystTypeConverters.createToScalaConverter(schema)
        val table = TensorTable.fromRows(schema, rows.map(r => toRow(r).asInstanceOf[Row]))
        val mask  = ExprEval.evalMask(expr, table, ExecEnv.empty)
        rows.iterator.zipWithIndex.collect { case (r, i) if mask.data(i) => r }
      }
    }
  }
}
