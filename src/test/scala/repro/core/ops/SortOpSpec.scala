package repro.core.ops

import org.scalatest.funsuite.AnyFunSuite
import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr.{ExecEnv, Expr, ExprEval}
import repro.tensor._

/** ORDER BY's null placement and stability against a reference sort. */
class SortOpSpec extends AnyFunSuite {

  test("NULLs sort at the chosen end, apart from empty strings and extreme values") {
    // Width-8 strings pack into all 64 bits, so "" holds the smallest key and
    // Long.MinValue / Long.MaxValue are values, not free sentinels.
    val strs  = Array("Brand#12", "", "", "zzzzzzzz", "", "éééé", "Brand#12")
    val longs = Array(Long.MinValue, 0L, Long.MaxValue, 5L, 0L, Long.MaxValue, Long.MinValue)
    val valid = Array(true, false, true, true, false, true, true)
    val table = TensorTable(Vector(
      Column("id", DType.I64, TensorOps.arange(strs.length)),
      Column("s", DType.Str, StringTensor.fromStrings(strs), Some(valid)),
      Column("v", DType.I64, I64Tensor(longs), Some(valid))))
    val byteOrder: Ordering[String] = (a, b) => java.util.Arrays.compareUnsigned(a.getBytes("UTF-8"), b.getBytes("UTF-8"))
    def reference[A](vals: Array[A], ord: Ordering[A], asc: Boolean, nullsFirst: Boolean): Seq[Long] = {
      val (nulls, rest) = strs.indices.partition(i => !valid(i))
      val sorted = rest.sortBy(vals(_))(if (asc) ord else ord.reverse)
      (if (nullsFirst) nulls ++ sorted else sorted ++ nulls).map(_.toLong)
    }
    for (asc <- Seq(true, false); nullsFirst <- Seq(true, false)) withClue(s"asc=$asc nullsFirst=$nullsFirst: ") {
      def ids(col: String, dt: DType) =
        SortOp.execute(table, Seq((Expr.ColRef(col, dt), asc, nullsFirst)), ExprEval, ExecEnv.empty)
          .column("id").i64.data.toSeq
      assert(ids("s", DType.Str) == reference(strs, byteOrder, asc, nullsFirst))
      assert(ids("v", DType.I64) == reference(longs, Ordering.Long, asc, nullsFirst))
    }
  }
}
