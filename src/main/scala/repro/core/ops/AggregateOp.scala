package repro.core.ops

import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr._
import repro.core.ir.IRVar
import repro.tensor._

/** Sort-based group-by aggregation — the paper's Algorithm 3.
  *
  * Group keys are concatenated/packed and radix-sorted; a
  * uniqueConsecutive pass yields group ids (inverse indices), which one
  * scatter through the sort permutation turns into a group id per input
  * row (`Groups.rowGroup`). Aggregate expressions are evaluated with the
  * §5.1 expression machinery and scatter-reduced by `rowGroup` in original
  * row order, so no argument column is gathered. `hashGroups = true` swaps
  * the grouping step for a hash-based one (the OmnisciDB-style alternative
  * the paper credits for its Q1/Q9 GPU wins, §6.6) — the aggregation
  * itself is unchanged.
  */
object AggregateOp {

  def execute(input: TensorTable,
              groupKeys: Seq[(Expr, IRVar)], aggs: Seq[AggCall],
              resultExprs: Seq[(Expr, IRVar)],
              exprs: ExprBackend, hashGroups: Boolean, env: ExecEnv): TensorTable = {
    val n = input.numRows

    // Evaluate grouping expressions (usually plain column refs).
    val keyCols: Seq[Column] =
      groupKeys.map { case (e, v) => exprs.evalToColumn(e, input, env, v.id) }

    val groups: KeyEncoder.Groups =
      if (groupKeys.isEmpty) KeyEncoder.Groups(I64Tensor.fill(n, 0L), 1, I64Tensor(Array(0L)))
      else {
        val enc = keyCols.flatMap(KeyEncoder.nullableKey)
        if (hashGroups) HashGrouping.groupsOf(enc) else KeyEncoder.groupsOf(enc)
      }
    // Rows per group: COUNT(*), and the valid count of every null-free argument.
    lazy val rowCounts = TensorOps.bincount(groups.rowGroup, groups.nGroups)

    // One slot column per aggregate call.
    val slotCols: Seq[Column] = aggs.zipWithIndex.map { case (call, slot) =>
      computeSlot(call, input, groups, rowCounts, env, exprs).renamed(AggCall.slotName(slot))
    }

    // Group-level table: representative key values + aggregate slots.
    val keyOut = keyCols.map(_.gather(groups.repRows))
    val groupTable = TensorTable((keyOut ++ slotCols).toVector)

    // Final projection over keys and slots (§5.1 expression evaluation).
    val outCols = resultExprs.map { case (e, v) =>
      exprs.evalToColumn(e, groupTable, env, v.id)
    }
    TensorTable(outCols.toVector)
  }

  /** Evaluate one aggregate call into its per-group slot column. */
  private def computeSlot(call: AggCall, input: TensorTable, groups: KeyEncoder.Groups,
                          rowCounts: => I64Tensor, env: ExecEnv, exprs: ExprBackend): Column = {
    import AggFn._
    val rowGroup = groups.rowGroup
    val nSeg = groups.nGroups

    if (call.fn == CountStar) return Column("", DType.I64, rowCounts, None)

    val arg = exprs.evalToColumn(call.arg.get, input, env)
    if (call.distinct) return computeDistinct(call, arg, groups)

    val counts =
      if (arg.validity.isEmpty) rowCounts
      else TensorOps.scatterReduce(TensorOps.Sum, fillInvalid(I64Tensor.fill(arg.length, 1L), arg.validity, 0L), rowGroup, nSeg)
    val validity = nullIfEmpty(counts)
    def sumF = TensorOps.scatterReduce(TensorOps.Sum, fillInvalid(arg.f64, arg.validity, 0.0), rowGroup, nSeg)
    def sumL = TensorOps.scatterReduce(TensorOps.Sum, fillInvalid(arg.i64, arg.validity, 0L), rowGroup, nSeg)

    call.fn match {
      case Count => Column("", DType.I64, counts, None)

      case Sum =>
        if (arg.dtype == DType.F64) Column("", DType.F64, sumF, validity)
        else Column("", DType.I64, sumL, validity)

      case Avg =>
        val sums = if (arg.dtype == DType.F64) sumF else TensorOps.toF64(sumL)
        Column("", DType.F64, TensorOps.div(sums, TensorOps.toF64(counts)), validity)

      case Min | Max =>
        val isMin = call.fn == Min
        val op = if (isMin) TensorOps.Min else TensorOps.Max
        if (arg.dtype == DType.F64) {
          val vals = fillInvalid(arg.f64, arg.validity, if (isMin) Double.PositiveInfinity else Double.NegativeInfinity)
          Column("", DType.F64, TensorOps.scatterReduce(op, vals, rowGroup, nSeg), validity)
        } else {
          // Strings reduce on dictionary ranks, then decode.
          val (codes, dict) =
            if (arg.dtype == DType.Str) { val (c, d) = StringTensor.dictEncode(arg.str); (c, Some(d)) }
            else (arg.i64, None)
          val vals = fillInvalid(codes, arg.validity, if (isMin) Long.MaxValue else Long.MinValue)
          val t = TensorOps.scatterReduce(op, vals, rowGroup, nSeg)
          dict match {
            case None => Column("", arg.dtype, t, validity)
            case Some(d) =>
              val strs = t.data.map(code => if (code >= 0 && code < d.length) d(code.toInt) else "")
              Column("", DType.Str, StringTensor.fromStrings(strs), validity)
          }
        }

      case CountStar => throw new IllegalStateException("handled above")
    }
  }

  /** DISTINCT aggregates: within each group, deduplicate values by a
    * secondary stable sort on (group, value), then reduce first occurrences
    * (COUNT/SUM DISTINCT — what TPC-H needs, e.g. Q16).
    */
  private def computeDistinct(call: AggCall, arg: Column, groups: KeyEncoder.Groups): Column = {
    import AggFn._
    val n = arg.length
    val rowGroup = groups.rowGroup
    val valsI64 = KeyEncoder.toOrderedI64(arg)
    val perm = KeyEncoder.lexArgsort(Seq(rowGroup, valsI64))
    // A valid row is first if it differs from the previous valid row in
    // (group, value) order; null rows neither count nor hide a value.
    val firstMask = new Array[Boolean](n)
    var prev = -1
    var i = 0
    while (i < n) {
      val p = perm.data(i).toInt
      if (arg.isValid(p)) {
        firstMask(p) = prev < 0 || rowGroup.data(p) != rowGroup.data(prev) || valsI64.data(p) != valsI64.data(prev)
        prev = p
      }
      i += 1
    }
    Profile.rec("distinctMask", OpClass.Unique, n, n * 17L)
    val mask = BoolTensor(firstMask)
    val segSel = TensorOps.maskedSelect(rowGroup, mask)
    val nSeg = groups.nGroups
    val counts = TensorOps.bincount(segSel, nSeg)
    call.fn match {
      case Count =>
        Column("", DType.I64, counts, None)
      case Sum if arg.dtype == DType.F64 =>
        Column("", DType.F64, TensorOps.scatterReduce(TensorOps.Sum, TensorOps.maskedSelect(arg.f64, mask), segSel, nSeg), nullIfEmpty(counts))
      case Sum =>
        Column("", DType.I64, TensorOps.scatterReduce(TensorOps.Sum, TensorOps.maskedSelect(arg.i64, mask), segSel, nSeg), nullIfEmpty(counts))
      case other => throw new IllegalArgumentException(s"DISTINCT unsupported for $other")
    }
  }

  /** NULL for groups with no non-null input (SQL SUM/AVG/MIN/MAX). */
  private def nullIfEmpty(counts: I64Tensor): Option[Array[Boolean]] = {
    val valid = new Array[Boolean](counts.length)
    var allValid = true
    var i = 0
    while (i < valid.length) { valid(i) = counts.data(i) > 0L; allValid &&= valid(i); i += 1 }
    if (allValid) None else Some(valid)
  }

  /** `values` with null rows replaced by `fill` (no copy when none is null). */
  private def fillInvalid(values: I64Tensor, validity: Option[Array[Boolean]], fill: Long): I64Tensor =
    validity match {
      case None => values
      case Some(v) =>
        val out = values.data.clone()
        var i = 0
        while (i < out.length) { if (!v(i)) out(i) = fill; i += 1 }
        I64Tensor(out)
    }

  private def fillInvalid(values: F64Tensor, validity: Option[Array[Boolean]], fill: Double): F64Tensor =
    validity match {
      case None => values
      case Some(v) =>
        val out = values.data.clone()
        var i = 0
        while (i < out.length) { if (!v(i)) out(i) = fill; i += 1 }
        F64Tensor(out)
    }
}
