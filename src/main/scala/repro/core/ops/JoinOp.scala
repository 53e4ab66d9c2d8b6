package repro.core.ops

import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr.{ExecEnv, Expr, ExprBackend}
import repro.core.ir.JoinKind
import repro.tensor._

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
  * left-outer / left-semi / left-anti / existence variants (§5.2) — all on
  * the index-pair ("late materialization") representation.
  */
object JoinOp {

  def execute(left: TensorTable, right: TensorTable, kind: JoinKind,
              leftKeys: Seq[Expr], rightKeys: Seq[Expr], residual: Option[Expr],
              algo: JoinAlgo, exprs: ExprBackend, env: ExecEnv,
              outNames: Seq[String]): TensorTable = {

    val (lIdx0, rIdx0) =
      if (leftKeys.isEmpty) cross(left.numRows, right.numRows)
      else {
        val lCols = leftKeys.map(e => exprs.evalToColumn(e, left, env))
        val rCols = rightKeys.map(e => exprs.evalToColumn(e, right, env))
        val (lc, rc, k) = encodeWithNulls(lCols, rCols)
        algo match {
          case JoinAlgo.Sort => SortJoin.join(lc, rc, k)
          case JoinAlgo.Hash => HashJoin.join(lc, rc)
          case JoinAlgo.Auto =>
            if (maxMultiplicity(lc, k) > 15) SortJoin.join(lc, rc, k)
            else HashJoin.join(lc, rc)
        }
      }

    // Residual (non-equi) condition: evaluate over the candidate pair table
    // and keep the surviving pairs.
    val (lIdx, rIdx) = residual match {
      case None => (lIdx0, rIdx0)
      case Some(cond) =>
        val refs = Expr.refs(cond)
        val pairCols =
          left.columns.filter(c => refs(c.name)).map(_.gather(lIdx0)) ++
          right.columns.filter(c => refs(c.name)).map(_.gather(rIdx0))
        val pairTable = TensorTable(pairCols.toVector)
        val mask = exprs.evalMask(cond, pairTable, env)
        (TensorOps.maskedSelect(lIdx0, mask), TensorOps.maskedSelect(rIdx0, mask))
    }

    kind match {
      case JoinKind.Inner | JoinKind.Cross =>
        materializePairs(left, right, lIdx, rIdx, outNames)

      case JoinKind.LeftOuter =>
        val matched = markMatched(left.numRows, lIdx)
        val extraL  = TensorOps.nonzero(TensorOps.logicalNot(matched))
        val allL    = TensorOps.cat(lIdx, extraL)
        val allR    = TensorOps.cat(rIdx, I64Tensor.fill(extraL.length, -1L))
        materializePairs(left, right, allL, allR, outNames)

      case JoinKind.LeftSemi =>
        val matched = markMatched(left.numRows, lIdx)
        renameTo(left.gather(TensorOps.nonzero(matched)), outNames)

      case JoinKind.LeftAnti =>
        val matched = markMatched(left.numRows, lIdx)
        renameTo(left.gather(TensorOps.nonzero(TensorOps.logicalNot(matched))), outNames)

      case JoinKind.Existence(v) =>
        val matched = markMatched(left.numRows, lIdx)
        val cols = left.columns :+ Column(v.id, DType.Bool, matched, None)
        renameTo(TensorTable(cols), outNames)
    }
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

  /** Scatter "this left row matched" flags (semi/anti/outer bookkeeping). */
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
