package repro.core.ops

import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr._
import repro.core.ir.IRVar
import repro.tensor._

/** Sort-based group-by aggregation — the paper's Algorithm 3.
  *
  * Group keys are concatenated/packed and radix-sorted; a
  * uniqueConsecutive pass yields group ids (inverse indices); aggregate
  * expressions are evaluated with the §5.1 expression machinery and reduced
  * per group via scatter ops. `hashGroups = true` swaps the grouping step
  * for a hash-based one (the OmnisciDB-style alternative the paper credits
  * for its Q1/Q9 GPU wins, §6.6) — the aggregation itself is unchanged.
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
      if (groupKeys.isEmpty)
        KeyEncoder.Groups(TensorOps.arange(n), I64Tensor.fill(n, 0L), 1, I64Tensor(Array(0L)))
      else {
        val enc = keyCols.map(KeyEncoder.toOrderedI64)
        if (hashGroups) HashGrouping.groupsOf(enc) else KeyEncoder.groupsOf(enc)
      }
    val nSeg = groups.nGroups

    // One slot column per aggregate call.
    val slotCols: Seq[Column] = aggs.zipWithIndex.map { case (call, slot) =>
      computeSlot(call, input, groups, nSeg, env, exprs).renamed(s"#agg$slot")
    }

    // Group-level table: representative key values + aggregate slots.
    val keyOut: Seq[Column] =
      if (groupKeys.isEmpty) Nil
      else {
        val rep = if (n == 0) I64Tensor(Array.emptyLongArray) else groups.repRows
        keyCols.map(_.gather(rep))
      }
    val groupTable = TensorTable((keyOut ++ slotCols).toVector)

    // Final projection over keys and slots (§5.1 expression evaluation).
    val outCols = resultExprs.map { case (e, v) =>
      exprs.evalToColumn(rewriteAggRefs(e), groupTable, env, v.id)
    }
    TensorTable(outCols.toVector)
  }

  /** AggRef(slot) → ColRef("#agg<slot>") so post-agg projections reuse the
    * regular expression evaluators.
    */
  private def rewriteAggRefs(e: Expr): Expr = e match {
    case Expr.AggRef(slot, dt) => Expr.ColRef(s"#agg$slot", dt)
    case Expr.ColRef(_, _) | Expr.Lit(_, _) | Expr.NullLit(_) | Expr.ScalarSub(_, _) => e
    case Expr.Arith(k, l, r)   => Expr.Arith(k, rewriteAggRefs(l), rewriteAggRefs(r))
    case Expr.Neg(x)           => Expr.Neg(rewriteAggRefs(x))
    case Expr.Cmp(k, l, r)     => Expr.Cmp(k, rewriteAggRefs(l), rewriteAggRefs(r))
    case Expr.And(l, r)        => Expr.And(rewriteAggRefs(l), rewriteAggRefs(r))
    case Expr.Or(l, r)         => Expr.Or(rewriteAggRefs(l), rewriteAggRefs(r))
    case Expr.Not(x)           => Expr.Not(rewriteAggRefs(x))
    case Expr.InValues(x, vs)  => Expr.InValues(rewriteAggRefs(x), vs)
    case Expr.IsNull(x)        => Expr.IsNull(rewriteAggRefs(x))
    case Expr.IsNotNull(x)     => Expr.IsNotNull(rewriteAggRefs(x))
    case Expr.CaseWhen(bs, el) =>
      Expr.CaseWhen(bs.map { case (c, v) => (rewriteAggRefs(c), rewriteAggRefs(v)) }, el.map(rewriteAggRefs))
    case Expr.CastTo(x, dt)    => Expr.CastTo(rewriteAggRefs(x), dt)
    case Expr.StrPred(k, x, p) => Expr.StrPred(k, rewriteAggRefs(x), p)
    case Expr.Substr(x, s, l)  => Expr.Substr(rewriteAggRefs(x), s, l)
    case Expr.Year(x)          => Expr.Year(rewriteAggRefs(x))
  }

  /** Evaluate one aggregate call into its per-group slot column. */
  private def computeSlot(call: AggCall, input: TensorTable, groups: KeyEncoder.Groups,
                          nSeg: Int, env: ExecEnv, exprs: ExprBackend): Column = {
    import AggFn._
    val n = input.numRows

    if (call.fn == CountStar) {
      val counts = TensorOps.scatterAdd(I64Tensor.fill(n, 1L), groups.segIdSorted, nSeg)
      return Column("", DType.I64, counts, None)
    }

    val arg = exprs.evalToColumn(call.arg.get, input, env)
    // Permute argument rows into group-sorted order (Algorithm 3 line 4).
    val sortedArg   = arg.gather(groups.perm)
    val validSorted = sortedArg.validity

    def validCounts: I64Tensor = {
      val ones = validSorted match {
        case None    => I64Tensor.fill(n, 1L)
        case Some(v) => I64Tensor(v.map(b => if (b) 1L else 0L))
      }
      TensorOps.scatterAdd(ones, groups.segIdSorted, nSeg)
    }

    def validityFromCounts(counts: I64Tensor): Option[Array[Boolean]] = {
      val any = counts.data.exists(_ == 0L)
      if (any) Some(counts.data.map(_ > 0L)) else None
    }

    if (call.distinct) return computeDistinct(call, sortedArg, groups, nSeg)

    call.fn match {
      case Count =>
        Column("", DType.I64, validCounts, None)

      case Sum =>
        val counts = validCounts
        if (arg.dtype == DType.F64) {
          val vals = zeroInvalidF(sortedArg)
          Column("", DType.F64, TensorOps.scatterAdd(vals, groups.segIdSorted, nSeg), validityFromCounts(counts))
        } else {
          val vals = zeroInvalidL(sortedArg)
          Column("", DType.I64, TensorOps.scatterAdd(vals, groups.segIdSorted, nSeg), validityFromCounts(counts))
        }

      case Avg =>
        val counts = validCounts
        val sums =
          if (arg.dtype == DType.F64) TensorOps.scatterAdd(zeroInvalidF(sortedArg), groups.segIdSorted, nSeg)
          else TensorOps.toF64(TensorOps.scatterAdd(zeroInvalidL(sortedArg), groups.segIdSorted, nSeg))
        val avg = TensorOps.div(sums, TensorOps.toF64(counts))
        Column("", DType.F64, avg, validityFromCounts(counts))

      case Min | Max =>
        val counts = validCounts
        val validity = validityFromCounts(counts)
        if (arg.dtype == DType.F64) {
          val vals = fillInvalidF(sortedArg, if (call.fn == Min) Double.PositiveInfinity else Double.NegativeInfinity)
          val t = if (call.fn == Min) TensorOps.scatterMin(vals, groups.segIdSorted, nSeg)
                  else TensorOps.scatterMax(vals, groups.segIdSorted, nSeg)
          Column("", DType.F64, t, validity)
        } else if (arg.dtype == DType.Str) {
          // Min/max over strings: reduce on dictionary ranks, then decode.
          val (codes, dict) = StringTensor.dictEncode(sortedArg.str)
          val vals = sortedArg.validity match {
            case None => codes
            case Some(v) =>
              val c = codes.data.clone()
              var i = 0
              while (i < c.length) { if (!v(i)) c(i) = if (call.fn == Min) Long.MaxValue else Long.MinValue; i += 1 }
              I64Tensor(c)
          }
          val red = if (call.fn == Min) TensorOps.scatterMin(vals, groups.segIdSorted, nSeg)
                    else TensorOps.scatterMax(vals, groups.segIdSorted, nSeg)
          val strs = red.data.map { code =>
            if (code >= 0 && code < dict.length) dict(code.toInt) else ""
          }
          Column("", DType.Str, StringTensor.fromStrings(strs), validity)
        } else {
          val vals = fillInvalidL(sortedArg, if (call.fn == Min) Long.MaxValue else Long.MinValue)
          val t = if (call.fn == Min) TensorOps.scatterMin(vals, groups.segIdSorted, nSeg)
                  else TensorOps.scatterMax(vals, groups.segIdSorted, nSeg)
          Column("", arg.dtype, t, validity)
        }

      case CountStar => throw new IllegalStateException("handled above")
    }
  }

  /** DISTINCT aggregates: within each group, deduplicate values by a
    * secondary stable sort on (group, value), then reduce first occurrences
    * (COUNT/SUM DISTINCT — what TPC-H needs, e.g. Q16).
    */
  private def computeDistinct(call: AggCall, sortedArg: Column,
                              groups: KeyEncoder.Groups, nSeg: Int): Column = {
    import AggFn._
    val n = sortedArg.length
    val valsI64 = KeyEncoder.toOrderedI64(sortedArg)
    val perm2 = KeyEncoder.lexArgsort(Seq(groups.segIdSorted, valsI64))
    val firstMask = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      val p = perm2.data(i).toInt
      val isFirst = i == 0 || {
        val q = perm2.data(i - 1).toInt
        groups.segIdSorted.data(p) != groups.segIdSorted.data(q) || valsI64.data(p) != valsI64.data(q)
      }
      firstMask(p) = isFirst && sortedArg.isValid(p)
      i += 1
    }
    Profile.rec("distinctMask", OpClass.Unique, n, n * 17L)
    val mask = BoolTensor(firstMask)
    val segSel = TensorOps.maskedSelect(groups.segIdSorted, mask)
    call.fn match {
      case Count =>
        Column("", DType.I64, TensorOps.scatterAdd(I64Tensor.fill(segSel.length, 1L), segSel, nSeg), None)
      case Sum if sortedArg.dtype == DType.F64 =>
        val v = TensorOps.maskedSelect(sortedArg.f64, mask)
        Column("", DType.F64, TensorOps.scatterAdd(v, segSel, nSeg), None)
      case Sum =>
        val v = TensorOps.maskedSelect(sortedArg.i64, mask)
        Column("", DType.I64, TensorOps.scatterAdd(v, segSel, nSeg), None)
      case other => throw new IllegalArgumentException(s"DISTINCT unsupported for $other")
    }
  }

  private def zeroInvalidF(c: Column): F64Tensor = c.validity match {
    case None => c.f64
    case Some(v) =>
      val out = c.f64.data.clone()
      var i = 0
      while (i < out.length) { if (!v(i)) out(i) = 0.0; i += 1 }
      F64Tensor(out)
  }

  private def zeroInvalidL(c: Column): I64Tensor = c.validity match {
    case None => c.i64
    case Some(v) =>
      val out = c.i64.data.clone()
      var i = 0
      while (i < out.length) { if (!v(i)) out(i) = 0L; i += 1 }
      I64Tensor(out)
  }

  private def fillInvalidF(c: Column, fill: Double): F64Tensor = c.validity match {
    case None => c.f64
    case Some(v) =>
      val out = c.f64.data.clone()
      var i = 0
      while (i < out.length) { if (!v(i)) out(i) = fill; i += 1 }
      F64Tensor(out)
  }

  private def fillInvalidL(c: Column, fill: Long): I64Tensor = c.validity match {
    case None => c.i64
    case Some(v) =>
      val out = c.i64.data.clone()
      var i = 0
      while (i < out.length) { if (!v(i)) out(i) = fill; i += 1 }
      I64Tensor(out)
  }
}
