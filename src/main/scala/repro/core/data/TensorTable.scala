package repro.core.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.tensor._

/** A relation in TQP's internal format: a bag of equally-long [[Column]]s.
  *
  * Conversion to/from Spark rows is the paper's §4.3 step (1) — "converting
  * data into the tensor format" — and is measured separately from query
  * execution in the overheads experiment.
  */
final case class TensorTable(columns: Vector[Column]) {
  val numRows: Int = columns.headOption.map(_.length).getOrElse(0)
  require(columns.forall(_.length == numRows), "ragged table")

  def column(name: String): Column =
    columns.find(_.name == name).getOrElse(
      throw new NoSuchElementException(s"column $name not in ${columns.map(_.name)}"))

  def columnNames: Vector[String] = columns.map(_.name)

  def withColumn(c: Column): TensorTable = TensorTable(columns :+ c)

  def project(names: Seq[String]): TensorTable = TensorTable(names.map(column).toVector)

  def gather(idx: I64Tensor): TensorTable = TensorTable(columns.map(_.gather(idx)))

  def select(mask: BoolTensor): TensorTable = {
    val idx = TensorOps.nonzero(mask)
    gather(idx)
  }

  def limit(n: Int): TensorTable =
    if (numRows <= n) this
    else gather(TensorOps.arange(n))
}

object TensorTable {

  def dtypeOf(dt: DataType): DType = dt match {
    case LongType | IntegerType | ShortType | ByteType => DType.I64
    case DoubleType | FloatType                        => DType.F64
    case DateType                                      => DType.Date
    case StringType                                    => DType.Str
    case BooleanType                                   => DType.Bool
    case other => throw new IllegalArgumentException(s"unsupported Spark type $other")
  }

  /** Convert collected Spark rows into columnar tensors (§4.1). */
  def fromRows(schema: StructType, rows: Array[Row]): TensorTable = {
    val n = rows.length
    val cols = schema.fields.zipWithIndex.map { case (f, ci) =>
      val dtype = dtypeOf(f.dataType)
      var validity: Array[Boolean] = null
      def markNull(i: Int): Unit = {
        if (validity == null) validity = BoolTensor.fill(n, true).data
        validity(i) = false
      }
      val tensor: Tensor = dtype match {
        case DType.I64 =>
          val a = new Array[Long](n)
          var i = 0
          while (i < n) {
            val r = rows(i)
            if (r.isNullAt(ci)) markNull(i)
            else a(i) = r.get(ci) match {
              case l: java.lang.Long    => l.longValue
              case x: java.lang.Integer => x.longValue
              case s: java.lang.Short   => s.longValue
              case b: java.lang.Byte    => b.longValue
              case o => throw new IllegalArgumentException(s"bad i64 cell $o")
            }
            i += 1
          }
          I64Tensor(a)
        case DType.F64 =>
          val a = new Array[Double](n)
          var i = 0
          while (i < n) {
            val r = rows(i)
            if (r.isNullAt(ci)) markNull(i)
            else a(i) = r.get(ci) match {
              case d: java.lang.Double => d.doubleValue
              case f: java.lang.Float  => f.doubleValue
              case o => throw new IllegalArgumentException(s"bad f64 cell $o")
            }
            i += 1
          }
          F64Tensor(a)
        case DType.Date =>
          val a = new Array[Long](n)
          var i = 0
          while (i < n) {
            val r = rows(i)
            if (r.isNullAt(ci)) markNull(i)
            else a(i) = r.get(ci) match {
              case d: java.sql.Date       => d.toLocalDate.toEpochDay
              case d: java.time.LocalDate => d.toEpochDay
              case o => throw new IllegalArgumentException(s"bad date cell $o")
            }
            i += 1
          }
          I64Tensor(a)
        case DType.Str =>
          val a = new Array[String](n)
          var i = 0
          while (i < n) {
            val r = rows(i)
            if (r.isNullAt(ci)) { markNull(i); a(i) = "" }
            else a(i) = r.getString(ci)
            i += 1
          }
          StringTensor.fromStrings(a)
        case DType.Bool =>
          val a = new Array[Boolean](n)
          var i = 0
          while (i < n) {
            val r = rows(i)
            if (r.isNullAt(ci)) markNull(i) else a(i) = r.getBoolean(ci)
            i += 1
          }
          BoolTensor(a)
      }
      Column(f.name, dtype, tensor, Option(validity))
    }
    TensorTable(cols.toVector)
  }

  /** Convert back to Spark rows (§4.3: result in host format). */
  def toRows(t: TensorTable): Seq[Row] = {
    (0 until t.numRows).map { i =>
      Row.fromSeq(t.columns.map { c =>
        if (!c.isValid(i)) null
        else c.dtype match {
          case DType.I64  => c.i64.data(i)
          case DType.F64  => c.f64.data(i)
          case DType.Date => java.sql.Date.valueOf(java.time.LocalDate.ofEpochDay(c.i64.data(i)))
          case DType.Str  => c.str.rowString(i)
          case DType.Bool => c.bool.data(i)
        }
      })
    }
  }

  def toSparkSchema(t: TensorTable): StructType =
    StructType(t.columns.map { c =>
      val dt = c.dtype match {
        case DType.I64  => LongType
        case DType.F64  => DoubleType
        case DType.Date => DateType
        case DType.Str  => StringType
        case DType.Bool => BooleanType
      }
      StructField(c.name, dt, nullable = true)
    })

  def toDataFrame(spark: SparkSession, t: TensorTable): DataFrame = {
    import scala.jdk.CollectionConverters._
    spark.createDataFrame(toRows(t).asJava, toSparkSchema(t))
  }
}
