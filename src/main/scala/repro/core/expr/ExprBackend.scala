package repro.core.expr

import repro.core.data.{Column, TensorTable}
import repro.tensor.BoolTensor

/** How expressions run (§2.1, §6.1): interpreted, one tensor per node
  * ([[ExprEval]], "TQP"), or fused into block kernels ([[ExprCompiler]],
  * "TQPJ"). The Planner picks one per plan; operators take it as given.
  */
trait ExprBackend {
  /** Evaluate `e` over `t` into a column named `name`. */
  def evalToColumn(e: Expr, t: TensorTable, env: ExecEnv, name: String = "c"): Column

  /** Evaluate a predicate to a filter bitmap; NULL ⇒ false (SQL semantics). */
  def evalMask(e: Expr, t: TensorTable, env: ExecEnv): BoolTensor
}
