package repro.core.ops

import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr.{ExecEnv, Expr, ExprBackend}
import repro.tensor._

/** ORDER BY: stable multi-key sort via repeated radix argsort passes (last
  * key first), with SQL null ordering folded into sentinel key values.
  */
object SortOp {

  /** keys: (expr, ascending, nullsFirst). */
  def execute(input: TensorTable, keys: Seq[(Expr, Boolean, Boolean)],
              exprs: ExprBackend, env: ExecEnv): TensorTable = {
    val n = input.numRows
    var perm = TensorOps.arange(n)
    keys.reverse.foreach { case (e, asc, nullsFirst) =>
      val encoded = encodeKey(exprs.evalToColumn(e, input, env), asc, nullsFirst)
      val gathered = TensorOps.indexSelect(encoded, perm)
      val p2 = if (asc) TensorOps.argsort(gathered) else TensorOps.argsortDescending(gathered)
      perm = TensorOps.indexSelect(perm, p2)
    }
    input.gather(perm)
  }

  /** Order-preserving i64 encoding with nulls mapped to the proper end. */
  private def encodeKey(col: Column, asc: Boolean, nullsFirst: Boolean): I64Tensor = {
    val base = KeyEncoder.toOrderedI64(col)
    col.validity match {
      case None => base
      case Some(valid) =>
        // Sentinel that sorts to the requested end under the chosen direction.
        val sentinel =
          if (nullsFirst == asc) Long.MinValue else Long.MaxValue
        val out = base.data.clone()
        var i = 0
        while (i < out.length) { if (!valid(i)) out(i) = sentinel; i += 1 }
        I64Tensor(out)
    }
  }
}
