package repro.core.ops

import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr.{ExecEnv, Expr, ExprBackend}
import repro.core.ir.JoinKind
import repro.tensor._

import scala.annotation.switch

/** Which equi-join tensor program the Planning Layer instantiates.
  *
  * `Auto` applies the paper's own crossover rule (§5.3): the hash join wins
  * while at most ~15 build rows share a hash value; beyond that its
  * round-per-occupancy structure loses to the sort join — so high-
  * multiplicity keys fall back to Algorithm 1.
  */
sealed trait JoinAlgo
object JoinAlgo {
  case object Sort extends JoinAlgo
  case object Hash extends JoinAlgo
  case object Auto extends JoinAlgo
}

/** Join operator: key encoding, algorithm dispatch (Algorithm 1 or 2),
  * residual (non-equi) condition evaluation over candidate pairs, and the
  * left-outer / left-semi / left-anti / existence variants (§5.2).
  *
  * Inner, left-outer and cross joins work on the index-pair ("late
  * materialization") representation. Semi, anti and existence joins only
  * need one "matched" flag per left row, which they read from the right
  * side's key histogram, or for a residual from the min or max of a compared
  * value per key. Only a residual that a key's min, max and count cannot
  * decide makes them enumerate the candidate pairs (in left-row order, from
  * that histogram) and test the residual on them.
  */
object JoinOp {

  /** @param nullAware `NOT IN` semantics for a one-key anti join without a
    *                  residual: a left row is also dropped when its key is
    *                  NULL or the right side holds a NULL key, unless the
    *                  right side is empty
    */
  def execute(left: TensorTable, right: TensorTable, kind: JoinKind,
              leftKeys: Seq[Expr], rightKeys: Seq[Expr], residual: Option[Expr],
              nullAware: Boolean, algo: JoinAlgo, exprs: ExprBackend, env: ExecEnv,
              outNames: Seq[String]): TensorTable = {
    require(!nullAware || (kind == JoinKind.LeftAnti && leftKeys.length == 1 && residual.isEmpty),
      s"a null-aware join is an anti join on one key with no residual: $kind, ${leftKeys.length} keys, $residual")

    def matched: BoolTensor = matchedFlags(left, right, leftKeys, rightKeys, residual, nullAware, exprs, env)
    def pairs: (I64Tensor, I64Tensor) = joinPairs(left, right, leftKeys, rightKeys, residual, algo, exprs, env)

    kind match {
      case JoinKind.Inner | JoinKind.Cross =>
        val (lIdx, rIdx) = pairs
        materializePairs(left, right, lIdx, rIdx, outNames)

      case JoinKind.LeftOuter =>
        val (lIdx, rIdx) = pairs
        val extraL = TensorOps.nonzero(TensorOps.logicalNot(markMatched(left.numRows, lIdx)))
        val allL   = TensorOps.cat(lIdx, extraL)
        val allR   = TensorOps.cat(rIdx, I64Tensor.fill(extraL.length, -1L))
        materializePairs(left, right, allL, allR, outNames)

      case JoinKind.LeftSemi =>
        renameTo(left.gather(TensorOps.nonzero(matched)), outNames)

      case JoinKind.LeftAnti =>
        renameTo(left.gather(TensorOps.nonzero(TensorOps.logicalNot(matched))), outNames)

      case JoinKind.Existence(v) =>
        renameTo(TensorTable(left.columns :+ Column(v.id, DType.Bool, matched, None)), outNames)
    }
  }

  /** The (left, right) row pairs that satisfy the keys and the residual. */
  private def joinPairs(left: TensorTable, right: TensorTable,
                        leftKeys: Seq[Expr], rightKeys: Seq[Expr], residual: Option[Expr],
                        algo: JoinAlgo, exprs: ExprBackend, env: ExecEnv): (I64Tensor, I64Tensor) = {
    val (lIdx, rIdx) =
      if (leftKeys.isEmpty) cross(left.numRows, right.numRows)
      else {
        val (lc, rc, k) = encodeWithNulls(leftKeys.map(e => exprs.evalToColumn(e, left, env)),
                                          rightKeys.map(e => exprs.evalToColumn(e, right, env)))
        algo match {
          case JoinAlgo.Sort => SortJoin.join(lc, rc, k)
          case JoinAlgo.Hash => HashJoin.join(lc, rc)
          case JoinAlgo.Auto =>
            if (maxMultiplicity(lc, k) > 15) SortJoin.join(lc, rc, k)
            else HashJoin.join(lc, rc)
        }
      }
    residual match {
      case None => (lIdx, rIdx)
      case Some(cond) =>
        val mask = residualMask(left, right, lIdx, rIdx, cond, exprs, env)
        (TensorOps.maskedSelect(lIdx, mask), TensorOps.maskedSelect(rIdx, mask))
    }
  }

  /** Whether each left row has a right row that satisfies the keys and the
    * residual, in left-row order.
    */
  private def matchedFlags(left: TensorTable, right: TensorTable,
                           leftKeys: Seq[Expr], rightKeys: Seq[Expr], residual: Option[Expr],
                           nullAware: Boolean, exprs: ExprBackend, env: ExecEnv): BoolTensor = {
    val nL = left.numRows
    def matchedBy(lIdx: I64Tensor, rIdx: I64Tensor, cond: Expr): BoolTensor =
      markMatched(nL, TensorOps.maskedSelect(lIdx, residualMask(left, right, lIdx, rIdx, cond, exprs, env)))

    val perKey = residual.fold(Option(PerKeyResidual(Nil, Nil, None)))(PerKeyResidual.of(_, left, right))
    if (leftKeys.isEmpty && perKey.isEmpty) {
      val (lIdx, rIdx) = cross(nL, right.numRows)
      return matchedBy(lIdx, rIdx, residual.get)
    }
    val lCols = leftKeys.map(e => exprs.evalToColumn(e, left, env))
    val rCols = rightKeys.map(e => exprs.evalToColumn(e, right, env))
    // Null keys carry sentinel codes no row of the other side shares; without
    // keys every row has code 0.
    val (lc, rc, k) =
      if (leftKeys.isEmpty) (I64Tensor.fill(nL, 0L), I64Tensor.fill(right.numRows, 0L), 1)
      else encodeWithNulls(lCols, rCols)
    perKey match {
      case Some(split) =>
        val hit = matchedPerKey(left, right, lc, rc, k, split, exprs, env)
        def nulls(c: Column): Option[BoolTensor] = c.validity.map(v => TensorOps.logicalNot(BoolTensor(v)))
        // NOT IN against a non-empty right side also drops NULL comparisons.
        if (!nullAware) hit
        else if (right.numRows == 0) BoolTensor.fill(nL, false)
        else if (nulls(rCols.head).exists(TensorOps.any)) BoolTensor.fill(nL, true)
        else nulls(lCols.head).fold(hit)(TensorOps.logicalOr(hit, _))
      case None =>
        // Candidate pairs in left-row order: left row i owns pairs
        // [pairStart(i), pairStart(i) + counts(i)), which map onto its key's
        // run [rStart(lc(i)), …) of the right rows sorted by key.
        val rightHist = TensorOps.bincount(rc, k)
        val counts    = TensorOps.indexSelect(rightHist, lc)
        val lIdx      = TensorOps.repeatInterleave(counts)
        val rightPerm = TensorOps.argsort(rc)
        val rStart    = TensorOps.sub(TensorOps.cumsum(rightHist), rightHist)
        val pairStart = TensorOps.sub(TensorOps.cumsum(counts), counts)
        val delta     = TensorOps.sub(TensorOps.indexSelect(rStart, lc), pairStart)
        val rPos      = TensorOps.add(TensorOps.arange(lIdx.length), TensorOps.indexSelect(delta, lIdx))
        matchedBy(lIdx, TensorOps.indexSelect(rightPerm, rPos), residual.get)
    }
  }

  /** A residual that can be decided per key code, without pairs: AND
    * conjuncts over the left side only, over the right side only, and at
    * most one comparison `lValue op rValue` between an I64 (or Date)
    * expression over the left side and one over the right side, with `op`
    * one of Lt, Le, Gt, Ge and Ne.
    */
  private final case class PerKeyResidual(leftOnly: Seq[Expr], rightOnly: Seq[Expr],
                                          cmp: Option[(Int, Expr, Expr)])

  private object PerKeyResidual {
    // Indexed by TensorOps comparison op code (Eq, Ne, Lt, Le, Gt, Ge).
    private val negated = Array(TensorOps.Ne, TensorOps.Eq, TensorOps.Ge, TensorOps.Gt, TensorOps.Le, TensorOps.Lt)
    private val swapped = Array(TensorOps.Eq, TensorOps.Ne, TensorOps.Gt, TensorOps.Ge, TensorOps.Lt, TensorOps.Le)

    /** `cond` split into its conjuncts, if it has that shape. A column name
      * both sides hold is the left's, as in the pair path's column lookup.
      */
    def of(cond: Expr, left: TensorTable, right: TensorTable): Option[PerKeyResidual] = {
      val lNames = left.columnNames.toSet
      val rNames = right.columnNames.toSet -- lNames
      def conjuncts(e: Expr): Seq[Expr] = e match {
        case Expr.And(a, b) => conjuncts(a) ++ conjuncts(b)
        case other          => Seq(other)
      }
      def over(e: Expr, names: Set[String]): Boolean = { val r = Expr.refs(e); r.nonEmpty && r.subsetOf(names) }
      def integral(e: Expr): Boolean = e.dtype == DType.I64 || e.dtype == DType.Date
      def comparison(c: Expr): Option[(Int, Expr, Expr)] = {
        val (op, a, b) = c match {
          case Expr.Cmp(kind, a, b)            => (kind.op, a, b)
          case Expr.Not(Expr.Cmp(kind, a, b)) => (negated(kind.op), a, b)
          case _                               => return None
        }
        if (op == TensorOps.Eq || !integral(a) || !integral(b)) None
        else if (over(a, lNames) && over(b, rNames)) Some((op, a, b))
        else if (over(b, lNames) && over(a, rNames)) Some((swapped(op), b, a))
        else None
      }
      val (leftOnly, rest)   = conjuncts(cond).partition(c => Expr.refs(c).subsetOf(lNames))
      val (rightOnly, mixed) = rest.partition(c => Expr.refs(c).subsetOf(rNames))
      mixed match {
        case Seq()  => Some(PerKeyResidual(leftOnly, rightOnly, None))
        case Seq(c) => comparison(c).map(cmp => PerKeyResidual(leftOnly, rightOnly, Some(cmp)))
        case _      => None
      }
    }
  }

  /** Whether each left row matches under a [[PerKeyResidual]]. A right row
    * counts if its right-only conjuncts hold and its compared value is
    * valid; a left row matches if its left-only conjuncts hold, its compared
    * value `l` is valid, and its key's counted right rows are not empty and
    * hold some `r` with `l op r`: read from their maximum for Lt (Le), their
    * minimum for Gt (Ge), either for Ne.
    */
  private def matchedPerKey(left: TensorTable, right: TensorTable, lc: I64Tensor, rc: I64Tensor, k: Int,
                            split: PerKeyResidual, exprs: ExprBackend, env: ExecEnv): BoolTensor = {
    // Rows whose conjuncts are TRUE and compared value is valid (None: every row).
    def mask(conjuncts: Seq[Expr], value: Option[Column], t: TensorTable): Option[Array[Boolean]] =
      Column.validWhereBoth(conjuncts.reduceOption(Expr.And(_, _)).map(exprs.evalMask(_, t, env).data),
                            value.flatMap(_.validity))
    val lVal  = split.cmp.map { case (_, e, _) => exprs.evalToColumn(e, left, env) }
    val rVal  = split.cmp.map { case (_, _, e) => exprs.evalToColumn(e, right, env) }
    val lMask = mask(split.leftOnly, lVal, left)
    val rMask = mask(split.rightOnly, rVal, right)
    def counted(t: I64Tensor): I64Tensor = rMask.fold(t)(m => TensorOps.maskedSelect(t, BoolTensor(m)))
    val codes = counted(rc)
    def nonEmpty = TensorOps.cmp(TensorOps.Gt, TensorOps.indexSelect(TensorOps.bincount(codes, k), lc), I64Tensor(Array(0L)))
    val hit = split.cmp match {
      case None => nonEmpty
      case Some((op, _, _)) =>
        val l    = lVal.get.i64
        val vals = counted(rVal.get.i64)
        // An empty key's minimum is Long.MaxValue and its maximum Long.MinValue,
        // which no `l` is strictly above or below.
        def reduced(red: Int) = TensorOps.indexSelect(TensorOps.scatterReduce(red, vals, codes, k), lc)
        def someBelow = TensorOps.cmp(TensorOps.Lt, reduced(TensorOps.Min), l)
        def someAbove = TensorOps.cmp(TensorOps.Gt, reduced(TensorOps.Max), l)
        (op: @switch) match {
          case TensorOps.Lt => someAbove
          case TensorOps.Gt => someBelow
          case TensorOps.Ne => TensorOps.logicalOr(someBelow, someAbove)
          case TensorOps.Le => TensorOps.logicalAnd(TensorOps.cmp(TensorOps.Ge, reduced(TensorOps.Max), l), nonEmpty)
          case TensorOps.Ge => TensorOps.logicalAnd(TensorOps.cmp(TensorOps.Le, reduced(TensorOps.Min), l), nonEmpty)
        }
    }
    lMask.fold(hit)(m => TensorOps.logicalAnd(hit, BoolTensor(m)))
  }

  /** The residual's value on each candidate pair (NULL counts as false). */
  private def residualMask(left: TensorTable, right: TensorTable, lIdx: I64Tensor, rIdx: I64Tensor,
                           cond: Expr, exprs: ExprBackend, env: ExecEnv): BoolTensor = {
    val refs = Expr.refs(cond)
    val pairCols =
      left.columns.filter(c => refs(c.name)).map(_.gather(lIdx)) ++
      right.columns.filter(c => refs(c.name)).map(_.gather(rIdx))
    exprs.evalMask(cond, TensorTable(pairCols.toVector), env)
  }

  /** Null join keys never match: remap rows with a null key component to
    * per-side sentinel codes outside `[0, k)`'s shared match range.
    */
  private def encodeWithNulls(lCols: Seq[Column], rCols: Seq[Column]): (I64Tensor, I64Tensor, Int) = {
    val (lc, rc, k) = KeyEncoder.encodeJoint(lCols, rCols)
    val lValid = lCols.map(_.validity).reduce(Column.validWhereBoth)
    val rValid = rCols.map(_.validity).reduce(Column.validWhereBoth)
    if (lValid.isEmpty && rValid.isEmpty) (lc, rc, k)
    else {
      val lOut = lc.data.clone()
      lValid.foreach { v => var i = 0; while (i < lOut.length) { if (!v(i)) lOut(i) = k; i += 1 } }
      val rOut = rc.data.clone()
      rValid.foreach { v => var i = 0; while (i < rOut.length) { if (!v(i)) rOut(i) = k + 1; i += 1 } }
      (I64Tensor(lOut), I64Tensor(rOut), k + 2)
    }
  }

  /** Largest number of build-side rows sharing one key code. */
  private def maxMultiplicity(codes: I64Tensor, k: Int): Long =
    if (codes.length == 0 || k == 0) 0L
    else TensorOps.max(TensorOps.bincount(codes, k))

  /** Scatter "this left row matched" flags. */
  private def markMatched(nLeft: Int, lIdx: I64Tensor): BoolTensor = {
    val flags = new Array[Boolean](nLeft)
    var i = 0
    while (i < lIdx.length) { flags(lIdx.data(i).toInt) = true; i += 1 }
    Profile.rec("scatterFlags", OpClass.Scatter, lIdx.length, lIdx.length * 9L)
    BoolTensor(flags)
  }

  private def materializePairs(left: TensorTable, right: TensorTable,
                               lIdx: I64Tensor, rIdx: I64Tensor,
                               outNames: Seq[String]): TensorTable = {
    val cols = left.columns.map(_.gather(lIdx)) ++ right.columns.map(_.gather(rIdx))
    renameTo(TensorTable(cols), outNames)
  }

  private def renameTo(t: TensorTable, outNames: Seq[String]): TensorTable = {
    require(t.columns.length == outNames.length,
      s"join output arity ${t.columns.length} != ${outNames.length}")
    TensorTable(t.columns.zip(outNames).map { case (c, n) => c.renamed(n) })
  }

  /** Cartesian pairs (no equi keys) — only legal for small inputs. */
  private def cross(nL: Int, nR: Int): (I64Tensor, I64Tensor) = {
    val total = nL.toLong * nR
    require(total <= 50_000_000L, s"cross join too large: $nL x $nR")
    val l = new Array[Long](total.toInt)
    val r = new Array[Long](total.toInt)
    var i = 0; var p = 0
    while (i < nL) {
      var j = 0
      while (j < nR) { l(p) = i; r(p) = j; p += 1; j += 1 }
      i += 1
    }
    Profile.rec("cross", OpClass.Materialize, total, total * 16L)
    (I64Tensor(l), I64Tensor(r))
  }
}
