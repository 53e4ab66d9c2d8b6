package repro.core.data

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.tensor._

/** Data conversion (§4.1/§4.3): Spark rows ↔ columnar tensors, including
  * nulls, dates, and gather/select with outer-join padding.
  */
class TensorTableSpec extends SparkSpec {
  private val schema = StructType(Seq(
    StructField("i", LongType), StructField("d", DoubleType),
    StructField("s", StringType), StructField("dt", DateType),
    StructField("b", BooleanType)))

  private val rows = Array(
    Row(1L, 1.5, "ab", java.sql.Date.valueOf("1994-01-01"), true),
    Row(2L, null, "c", java.sql.Date.valueOf("1995-06-15"), false),
    Row(null, 3.5, null, null, null))

  test("round-trips rows through tensors") {
    val t = TensorTable.fromRows(schema, rows)
    assert(t.numRows == 3)
    val back = TensorTable.toRows(t)
    assert(back(0) == rows(0))
    assert(back(1).isNullAt(1) && back(1).getString(2) == "c")
    assert(back(2).isNullAt(0) && back(2).isNullAt(2) && back(2).isNullAt(3) && back(2).isNullAt(4))
  }

  test("dates become epoch days") {
    val t = TensorTable.fromRows(schema, rows)
    assert(t.column("dt").i64.data(0) == java.time.LocalDate.of(1994, 1, 1).toEpochDay)
    assert(t.column("dt").dtype == DType.Date)
  }

  test("int columns widen to i64") {
    val s2 = StructType(Seq(StructField("x", IntegerType)))
    val t = TensorTable.fromRows(s2, Array(Row(7), Row(-3)))
    assert(t.column("x").i64.data.toSeq == Seq(7L, -3L))
  }

  test("gather with -1 produces null rows (outer-join padding)") {
    val t = TensorTable.fromRows(schema, rows)
    val g = t.gather(I64Tensor(Array(2L, -1L, 0L)))
    assert(g.numRows == 3)
    assert(!g.column("i").isValid(1) && !g.column("s").isValid(1))
    assert(g.column("i").i64.data(2) == 1L)
    // Row 0 of the gather is source row 2, whose "i" was already null.
    assert(!g.column("i").isValid(0))
    // A zero-row source (LEFT JOIN against an empty side) yields all-null rows.
    val e = t.limit(0).gather(I64Tensor(Array(-1L, -1L)))
    assert(e.numRows == 2)
    assert(e.columns.forall(c => c.length == 2 && !c.isValid(0) && !c.isValid(1)))
    assert(e.column("s").str.rowString(1) == "" && e.column("d").f64.data(0) == 0.0)
  }

  test("select keeps masked rows only") {
    val t = TensorTable.fromRows(schema, rows)
    val sel = t.select(BoolTensor(Array(true, false, true)))
    assert(sel.numRows == 2)
    assert(sel.column("s").str.rowString(0) == "ab")
  }

  test("limit truncates") {
    val t = TensorTable.fromRows(schema, rows)
    assert(t.limit(2).numRows == 2)
    assert(t.limit(10).numRows == 3)
  }

  test("toDataFrame round-trips through Spark") {
    val t = TensorTable.fromRows(schema, rows)
    val df = TensorTable.toDataFrame(spark, t)
    assert(df.count() == 3)
    assert(df.schema.fieldNames.toSeq == schema.fieldNames.toSeq)
    val got = df.collect().sortBy(r => Option(r.get(0)).map(_.toString).getOrElse(""))
    assert(got.exists(r => r.isNullAt(0)))
  }

  test("ragged tables are rejected") {
    assertThrows[IllegalArgumentException] {
      TensorTable(Vector(
        Column("a", DType.I64, I64Tensor(Array(1L, 2L))),
        Column("b", DType.I64, I64Tensor(Array(1L)))))
    }
  }
}
