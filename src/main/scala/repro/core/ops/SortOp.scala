package repro.core.ops

import repro.core.data.TensorTable
import repro.core.expr.{ExecEnv, Expr, ExprBackend}

/** ORDER BY: stable multi-key sort via repeated radix argsort passes (last
  * key first, [[KeyEncoder.lexArgsort]]), with SQL null ordering as a null
  * flag sorted before each nullable key.
  */
object SortOp {

  /** keys: (expr, ascending, nullsFirst). A nullable key's null flag sorts
    * descending to put NULLs first.
    */
  def execute(input: TensorTable, keys: Seq[(Expr, Boolean, Boolean)],
              exprs: ExprBackend, env: ExecEnv): TensorTable =
    if (keys.isEmpty) input
    else {
      val encoded = keys.flatMap { case (e, asc, nullsFirst) =>
        val cols = KeyEncoder.nullableKey(exprs.evalToColumn(e, input, env))
        cols.init.map((_, nullsFirst)) :+ ((cols.last, !asc))
      }
      input.gather(KeyEncoder.lexArgsort(encoded.map(_._1), encoded.map(_._2)))
    }
}
