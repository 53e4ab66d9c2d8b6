package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{Attribute, CurrentCatalog, CurrentDatabase, CurrentDate,
  CurrentTime, CurrentTimeZone, CurrentTimestampLike, CurrentUser, Expression, LocalTimestamp}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import repro.core.compile.{CatalystFrontend, CompiledIR, Rules}
import repro.core.data.TensorTable
import repro.core.exec.{Executor, TqpConfig}
import repro.tensor.{CpuDevice, ExecCtx, Profile}

import scala.collection.mutable

/** Tensor Query Processor — the paper's end-to-end system (§4).
  *
  * Workflow, exactly as §4: *compilation* turns a Spark SQL statement into a
  * tensor program (Parsing → Canonicalization/Optimization → Planning →
  * Execution layers); *execution* converts input data to columnar tensors
  * once at registration and then runs compiled queries against them.
  *
  * Spark plays the same frontend role as in the paper: it parses and
  * optimizes the statement; TQP compiles Spark's optimized plan. Registered
  * tables are materialized RDD-backed DataFrames so their plan leaves stay
  * stable and map 1:1 to the registered tensor tables.
  */
final class TqpSession(val spark: SparkSession) {

  private val tables = mutable.LinkedHashMap[String, TensorTable]()
  private val schemas = mutable.LinkedHashMap[String, Set[String]]()

  /** Compiled plans by (SQL text, session SQL conf entries), oldest first. */
  private val plans = mutable.LinkedHashMap[(String, Map[String, String]), CompiledIR]()

  /** Register a table: collect, convert to tensors (§4.1), and expose to
    * Spark as a temp view for parsing/optimization. Scans resolve to tables
    * by their set of column names, so a second table with the same set
    * under another name is refused; re-registering a name replaces it.
    * Either changes what a name resolves to, so the plan cache is cleared.
    */
  def register(name: String, df: DataFrame): Unit = {
    val columns = df.schema.fieldNames.toSet
    schemas.collectFirst { case (t, cols) if t != name && cols == columns => t }.foreach { t =>
      throw new IllegalArgumentException(
        s"table $name has the same column names as registered table $t; scans could not tell them apart")
    }
    val rows = df.collect()
    // Registered data is null-free, so its columns are declared non-nullable.
    // Spark still plans NOT IN over them as an anti join on
    // `a = b OR isnull(a = b)`; the frontend makes that a null-aware keyed one.
    val schema = org.apache.spark.sql.types.StructType(
      df.schema.fields.map(_.copy(nullable = false)))
    tables(name)  = TensorTable.fromRows(schema, rows)
    schemas(name) = columns
    plans.clear()
    val rdd = spark.sparkContext.parallelize(rows.toIndexedSeq, math.max(1, spark.sparkContext.defaultParallelism))
    spark.createDataFrame(rdd, schema).createOrReplaceTempView(name)
  }

  /** The tensor table registered under `name`. */
  def tensorTable(name: String): TensorTable = tables(name)

  private def tableFor(attrs: Seq[Attribute]): Option[String] = {
    val names = attrs.map(_.name).toSet
    schemas.collectFirst { case (t, cols) if cols == names => t }
  }

  /** Compilation phase: SQL → optimized Catalyst plan → IR → rules.
    *
    * Plans are cached by SQL text and the session's SQL conf entries, so a
    * repeated query skips Catalyst, the frontend and the rules. That is safe
    * because `CompiledIR` is immutable and `Executor.run` plans it (and
    * evaluates its scalar subqueries) anew on every run. Not stored: a
    * compile that throws, and a plan with a value Spark folds at
    * optimization time or a non-deterministic expression.
    */
  def compile(sql: String): CompiledIR = {
    val key = (sql, spark.sessionState.conf.getAllConfs)
    plans.getOrElse(key, {
      val df = spark.sql(sql)
      val raw = CatalystFrontend.compile(df, tableFor)
      val ir = raw.copy(plan = Rules(raw.plan), subqueries = raw.subqueries.map { case (p, dt) => (Rules(p), dt) })
      if (!TqpSession.runDependent(df.queryExecution.analyzed)) {
        plans(key) = ir
        if (plans.size > TqpSession.PlanCacheSize) plans.remove(plans.head._1)
      }
      ir
    })
  }

  /** Execution phase on the current thread's device. */
  def run(ir: CompiledIR, cfg: TqpConfig): TensorTable =
    Executor.run(ir, cfg, tables)

  def run(sql: String, cfg: TqpConfig = TqpConfig.interpreted): TensorTable =
    run(compile(sql), cfg)

  /** Run and return a Spark DataFrame (for the DuckDB oracle / comparisons). */
  def runToDf(sql: String, cfg: TqpConfig = TqpConfig.interpreted): DataFrame =
    TensorTable.toDataFrame(spark, run(sql, cfg))

  def runToDf(ir: CompiledIR, cfg: TqpConfig): DataFrame =
    TensorTable.toDataFrame(spark, run(ir, cfg))

  /** Run on a specific device, optionally recording an op profile (for the
    * simulated-accelerator cost models).
    */
  def runOn(ir: CompiledIR, cfg: TqpConfig, device: CpuDevice,
            profile: Option[Profile] = None): TensorTable = {
    val ctx = ExecCtx(device, profile)
    ExecCtx.withCtx(ctx) { Executor.run(ir, cfg, tables) }
  }

  def registeredTables: Seq[String] = tables.keys.toSeq
}

object TqpSession {

  /** Most plans a session caches; past it the oldest is evicted. */
  val PlanCacheSize = 1024

  /** True iff `plan` (or a subquery in it) holds an expression whose value
    * is fixed per run: Spark's optimizer folds the current date, time, time
    * zone, database, catalog and user into literals, and a non-deterministic
    * expression may not be reused at all. Such a plan is never cached.
    */
  private def runDependent(plan: LogicalPlan): Boolean = {
    def fixedAtRun(e: Expression): Boolean = !e.deterministic || (e match {
      case _: CurrentDate | _: CurrentTimestampLike | _: LocalTimestamp | _: CurrentTime |
           _: CurrentTimeZone | _: CurrentDatabase | _: CurrentCatalog | _: CurrentUser => true
      case _ => false
    })
    plan.collectWithSubqueries { case p if p.expressions.exists(_.exists(fixedAtRun)) => p }.nonEmpty
  }
}
