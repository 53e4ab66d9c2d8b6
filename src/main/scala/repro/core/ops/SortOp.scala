package repro.core.ops

import repro.core.data.{Column, TensorTable}
import repro.core.expr.{ExecEnv, Expr, ExprBackend}
import repro.tensor._

/** ORDER BY: stable multi-key sort via repeated radix argsort passes (last
  * key first, [[KeyEncoder.lexArgsort]]), with SQL null ordering folded into
  * sentinel key values.
  */
object SortOp {

  /** keys: (expr, ascending, nullsFirst). */
  def execute(input: TensorTable, keys: Seq[(Expr, Boolean, Boolean)],
              exprs: ExprBackend, env: ExecEnv): TensorTable =
    if (keys.isEmpty) input
    else {
      val encoded = keys.map { case (e, asc, nullsFirst) =>
        encodeKey(exprs.evalToColumn(e, input, env), asc, nullsFirst)
      }
      input.gather(KeyEncoder.lexArgsort(encoded, keys.map(!_._2)))
    }

  /** Order-preserving i64 encoding with nulls mapped to the proper end:
    * a sentinel that sorts there under the chosen direction.
    */
  private def encodeKey(col: Column, asc: Boolean, nullsFirst: Boolean): I64Tensor =
    AggregateOp.fillInvalid(KeyEncoder.toOrderedI64(col), col.validity,
      if (nullsFirst == asc) Long.MinValue else Long.MaxValue)
}
