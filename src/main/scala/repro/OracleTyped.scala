package repro

import java.sql.{Connection, DriverManager}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types._

/** Typed DuckDB correctness oracle.
  *
  * Loading every column as VARCHAR would break aggregates (`SUM(VARCHAR)`)
  * and date arithmetic, so this oracle creates DuckDB tables with types
  * derived from the Spark schema, loads them via CSV COPY (the JDBC batch
  * path executes one statement per row and is ~100× slower), caches loaded
  * tables across calls, and compares rows with numeric tolerance (double summation order
  * differs across engines).
  */
object OracleTyped {

  private def duckType(dt: DataType): String = dt match {
    case LongType | IntegerType | ShortType | ByteType => "BIGINT"
    case DoubleType | FloatType                        => "DOUBLE"
    case DateType                                      => "DATE"
    case StringType                                    => "VARCHAR"
    case BooleanType                                   => "BOOLEAN"
    case _: DecimalType                                => "DOUBLE"
    case other => throw new IllegalArgumentException(s"oracle: unsupported type $other")
  }

  // One shared in-memory DuckDB; tables are cached by (name, DataFrame identity).
  private lazy val conn: Connection = {
    Class.forName("org.duckdb.DuckDBDriver")
    DriverManager.getConnection("jdbc:duckdb:")
  }
  private val loaded = scala.collection.mutable.Map[String, Int]()

  private def csvCell(v: Any): String = v match {
    case null                   => ""
    case s: String              => "\"" + s.replace("\"", "\"\"") + "\""
    case d: java.sql.Date       => d.toLocalDate.toString
    case d: java.time.LocalDate => d.toString
    case d: java.lang.Double    => if (d.isNaN || d.isInfinite) "" else d.toString
    case x                      => x.toString
  }

  private def load(name: String, df: DataFrame): Unit = synchronized {
    val id = System.identityHashCode(df)
    if (loaded.get(name).contains(id)) return
    val fields = df.schema.fields
    val st = conn.createStatement
    st.execute(s"DROP TABLE IF EXISTS $name")
    st.execute(s"CREATE TABLE $name (${fields.map(f => s"${f.name} ${duckType(f.dataType)}").mkString(", ")})")
    val tmp = java.io.File.createTempFile(s"oracle_$name", ".csv")
    try {
      val w = new java.io.BufferedWriter(new java.io.FileWriter(tmp), 1 << 20)
      df.collect().foreach { r =>
        val line = fields.indices.iterator
          .map(i => csvCell(if (r.isNullAt(i)) null else r.get(i)))
          .mkString(",")
        w.write(line); w.write("\n")
      }
      w.close()
      st.execute(s"COPY $name FROM '${tmp.getAbsolutePath}' (FORMAT CSV, HEADER false)")
    } finally { tmp.delete(); () }
    st.close()
    loaded(name) = id
  }

  /** Canonical cell: doubles rounded, dates ISO, nulls as ∅. */
  private def canonCell(v: Any): String = v match {
    case null                         => "∅"
    case d: java.lang.Double          => f"${d.doubleValue}%.4f"
    case f: java.lang.Float           => f"${f.doubleValue}%.4f"
    case bd: java.math.BigDecimal     => f"${bd.doubleValue}%.4f"
    case d: java.sql.Date             => d.toLocalDate.toString
    case d: java.time.LocalDate       => d.toString
    case x                            => x.toString
  }

  private def isNumeric(v: Any): Boolean = v match {
    case _: java.lang.Double | _: java.lang.Float | _: java.math.BigDecimal => true
    case _ => false
  }

  private def asDouble(v: Any): Double = v match {
    case d: java.lang.Double      => d
    case f: java.lang.Float       => f.doubleValue
    case bd: java.math.BigDecimal => bd.doubleValue
    case l: java.lang.Long        => l.doubleValue
    case i: java.lang.Integer     => i.doubleValue
    case _                        => Double.NaN
  }

  /** Run `sql` on DuckDB over typed copies of `tables` and assert the result
    * multiset matches `sparkDf` within numeric tolerance.
    */
  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = synchronized {
    tables.foreach { case (name, df) => load(name, df) }
    val rs   = conn.createStatement.executeQuery(sql)
    val meta = rs.getMetaData
    val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
    val dRows = Iterator.continually(rs).takeWhile(_.next())
      .map(r => (1 to dCols.size).map(i => r.getObject(i)).toIndexedSeq).toVector

    val sCols = sparkDf.columns.toSeq
    require(dCols.map(_.toLowerCase) == sCols.map(_.toLowerCase),
      s"column mismatch: spark=$sCols duckdb=$dCols — alias every output column")

    val sRows = sparkDf.collect().toVector.map(r => (0 until sCols.size).map(r.get).toIndexedSeq)
    compare(sRows, dRows)
  }

  /** Run `sql` on the oracle and return the rows (for baseline timing). */
  def query(sql: String, tables: (String, DataFrame)*): Vector[IndexedSeq[Any]] = synchronized {
    tables.foreach { case (name, df) => load(name, df) }
    val rs = conn.createStatement.executeQuery(sql)
    val nc = rs.getMetaData.getColumnCount
    Iterator.continually(rs).takeWhile(_.next())
      .map(r => (1 to nc).map(i => r.getObject(i)).toIndexedSeq).toVector
  }

  def execute(sql: String): Unit = synchronized { conn.createStatement.execute(sql); () }

  /** Compare row multisets: sort both by canonical string, then pairwise
    * compare cells with relative tolerance for floating point. `spark` is
    * the result under test, `duck` the reference.
    */
  def compare(spark: Vector[IndexedSeq[Any]], duck: Vector[IndexedSeq[Any]]): Unit = {
    require(spark.size == duck.size, s"row count mismatch: spark=${spark.size} duckdb=${duck.size}\n" +
      s"  spark head: ${spark.take(3).map(_.map(canonCell))}\n  duck head: ${duck.take(3).map(_.map(canonCell))}")
    def key(r: IndexedSeq[Any]): String = r.map(canonCell).mkString("|")
    val s = spark.sortBy(key)
    val d = duck.sortBy(key)
    s.zip(d).zipWithIndex.foreach { case ((sr, dr), ri) =>
      sr.indices.foreach { ci =>
        val a = sr(ci); val b = dr(ci)
        val ok =
          if (a == null || b == null) a == null && b == null
          else if (isNumeric(a) || isNumeric(b)) {
            val x = asDouble(a); val y = asDouble(b)
            math.abs(x - y) <= 1e-4 + 1e-6 * math.max(math.abs(x), math.abs(y))
          } else canonCell(a) == canonCell(b)
        require(ok, s"cell mismatch at sorted row $ri col $ci: spark=${canonCell(a)} duck=${canonCell(b)}\n" +
          s"  spark row: ${sr.map(canonCell)}\n  duck row:  ${dr.map(canonCell)}")
      }
    }
  }
}
