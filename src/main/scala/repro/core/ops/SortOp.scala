package repro.core.ops

import repro.core.data.{Column, TensorTable}
import repro.core.expr.{ExecEnv, Expr, ExprBackend}
import repro.tensor._

/** ORDER BY: stable multi-key sort via repeated radix argsort passes (last
  * key first, [[KeyEncoder.lexArgsort]]), with SQL null ordering as a null
  * flag sorted before each nullable key.
  */
object SortOp {

  /** keys: (expr, ascending, nullsFirst). */
  def execute(input: TensorTable, keys: Seq[(Expr, Boolean, Boolean)],
              exprs: ExprBackend, env: ExecEnv): TensorTable =
    if (keys.isEmpty) input
    else {
      val encoded = keys.flatMap { case (e, asc, nullsFirst) =>
        encodeKey(exprs.evalToColumn(e, input, env), asc, nullsFirst)
      }
      input.gather(KeyEncoder.lexArgsort(encoded.map(_._1), encoded.map(_._2)))
    }

  /** Order-preserving i64 sort keys, each with whether it sorts descending.
    * A column with nulls is sorted by a null flag first, which puts NULLs at
    * the chosen end, then by its values, zeroed at null rows so they tie.
    */
  private def encodeKey(col: Column, asc: Boolean, nullsFirst: Boolean): Seq[(I64Tensor, Boolean)] = {
    val values = KeyEncoder.toOrderedI64(col)
    col.validity match {
      case None => Seq((values, !asc))
      case Some(valid) =>
        val isNull = new Array[Long](valid.length)
        var i = 0
        while (i < valid.length) { if (!valid(i)) isNull(i) = 1L; i += 1 }
        Seq((I64Tensor(isNull), nullsFirst), (AggregateOp.fillInvalid(values, col.validity, 0L), !asc))
    }
  }
}
