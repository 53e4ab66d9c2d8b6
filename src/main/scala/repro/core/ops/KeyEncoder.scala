package repro.core.ops

import repro.core.data.{Column, DType}
import repro.tensor._

/** Key normalization for the tensor join/aggregation algorithms.
  *
  * Algorithm 1 (sort join) and Algorithm 3 (aggregation) need integer keys
  * that `bincount` can index: dense, non-negative, bounded. TQP's columns
  * can be int, date, double or string, and keys can be composite — this
  * module lowers any key combination to such codes using only tensor ops
  * (sort, uniqueConsecutive-style adjacency scans, element-wise packing).
  */
object KeyEncoder {

  /** Lower one column to order-preserving i64 values. */
  def toOrderedI64(c: Column): I64Tensor = c.dtype match {
    case DType.I64 | DType.Date => c.i64
    case DType.Bool =>
      I64Tensor(c.bool.data.map(b => if (b) 1L else 0L))
    case DType.F64 =>
      // IEEE total-order transform: preserves < over doubles as signed longs.
      val a = c.f64.data
      val r = new Array[Long](a.length)
      var i = 0
      while (i < a.length) {
        val bits = java.lang.Double.doubleToRawLongBits(if (a(i) == 0.0) 0.0 else a(i))
        r(i) = bits ^ ((bits >> 63) & 0x7fffffffffffffffL)
        i += 1
      }
      Profile.rec("sortableBits", OpClass.ElementWise, a.length, a.length * 16L)
      I64Tensor(r)
    case DType.Str =>
      // Both in unsigned byte order; packing needs no dictionary.
      if (c.str.width <= 8) StringTensor.packBytes(c.str) else StringTensor.dictEncode(c.str)._1
  }

  /** A sort or grouping key as order-preserving i64 columns: its
    * [[toOrderedI64]] values, or for a column with a validity mask a null
    * flag (1 at NULL rows) and then those values zeroed at NULL rows, so the
    * NULLs tie with each other and with no value.
    */
  def nullableKey(c: Column): Seq[I64Tensor] = {
    val values = toOrderedI64(c)
    c.validity match {
      case None => Seq(values)
      case Some(valid) =>
        val isNull = new Array[Long](valid.length)
        val zeroed = values.data.clone()
        var i = 0
        while (i < valid.length) { if (!valid(i)) { isNull(i) = 1L; zeroed(i) = 0L }; i += 1 }
        Seq(I64Tensor(isNull), I64Tensor(zeroed))
    }
  }

  /** Stable lexicographic argsort over several i64 key columns
    * (multi-pass LSD: sort by the last key first).
    */
  def lexArgsort(cols: Seq[I64Tensor], descending: Seq[Boolean] = Nil): I64Tensor = {
    val n = cols.head.length
    var perm = TensorOps.arange(n)
    val desc = if (descending.isEmpty) cols.map(_ => false) else descending
    cols.indices.reverse.foreach { k =>
      val gathered = TensorOps.indexSelect(cols(k), perm)
      val p2 = if (desc(k)) TensorOps.argsortDescending(gathered) else TensorOps.argsort(gathered)
      perm = TensorOps.indexSelect(perm, p2)
    }
    perm
  }

  /** Grouping of the input rows (Algorithm 3, lines 2–5).
    *
    * @param rowGroup group id of each input row, in original row order
    * @param nGroups  number of distinct keys
    * @param repRows  original row index of each group's first member
    */
  final case class Groups(rowGroup: I64Tensor, nGroups: Int, repRows: I64Tensor)

  /** Sort rows of `keyCols` lexicographically, find consecutive-unique
    * groups (tuple-level uniqueConsecutive with inverse indices), and
    * scatter the inverse back through the sort permutation so each row
    * carries its group id. Group ids follow key order.
    */
  def groupsOf(keyCols: Seq[I64Tensor]): Groups = {
    val n = keyCols.headOption.map(_.length).getOrElse(0)
    if (keyCols.isEmpty || n == 0) {
      return Groups(I64Tensor.fill(n, 0L), if (n == 0) 0 else 1, TensorOps.arange(math.min(n, 1)))
    }
    packColumns(keyCols) match {
      case Some(packed) =>
        val (sortedKeys, perm) = TensorOps.sort(packed)
        val (_, inv, _) = TensorOps.uniqueConsecutive(sortedKeys)
        finishGroups(perm, inv)
      case None =>
        val perm = lexArgsort(keyCols)
        finishGroups(perm, tupleUniqueConsecutive(keyCols, perm))
    }
  }

  /** `rowGroup(perm(i)) = inv(i)`; the stable sort puts each group's first
    * row first, so that row is its representative.
    */
  private def finishGroups(perm: I64Tensor, inv: I64Tensor): Groups = {
    val n = perm.length
    val nGroups = inv.data(n - 1).toInt + 1
    val rowGroup = new Array[Long](n)
    val rep = new Array[Long](nGroups)
    var i = 0
    while (i < n) {
      val g = inv.data(i)
      rowGroup(perm.data(i).toInt) = g
      if (i == 0 || g != inv.data(i - 1)) rep(g.toInt) = perm.data(i)
      i += 1
    }
    Profile.rec("groupScatter", OpClass.Scatter, n, n * 24L)
    Groups(I64Tensor(rowGroup), nGroups, I64Tensor(rep))
  }

  /** uniqueConsecutive over tuples, walking the sorted permutation. */
  private def tupleUniqueConsecutive(cols: Seq[I64Tensor], perm: I64Tensor): I64Tensor = {
    val n = perm.length
    val inv = new Array[Long](n)
    var g = 0L
    var i = 1
    inv(0) = 0
    while (i < n) {
      val a = perm.data(i - 1).toInt
      val b = perm.data(i).toInt
      var same = true
      var k = 0
      while (same && k < cols.length) { same = cols(k).data(a) == cols(k).data(b); k += 1 }
      if (!same) g += 1
      inv(i) = g
      i += 1
    }
    Profile.rec("uniqueConsecutive", OpClass.Unique, n, n * 8L * cols.length)
    I64Tensor(inv)
  }

  /** Pack several i64 key columns into one, if their ranges fit in 63 bits
    * ("concat(grpByCols, dim=1)" followed by a radix sort, §5.4).
    */
  def packColumns(cols: Seq[I64Tensor]): Option[I64Tensor] = {
    if (cols.isEmpty || cols.head.length == 0) return cols.headOption
    if (cols.length == 1) return Some(cols.head)
    val stats = cols.map { c =>
      var mn = Long.MaxValue; var mx = Long.MinValue
      var i = 0
      while (i < c.length) { val v = c.data(i); if (v < mn) mn = v; if (v > mx) mx = v; i += 1 }
      (mn, mx)
    }
    val bits = stats.map { case (mn, mx) =>
      val range = mx - mn // may overflow for extreme doubles-as-bits; guard below
      if (range < 0) return None
      64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, range))
    }
    if (bits.sum > 62) return None
    val n = cols.head.length
    val out = new Array[Long](n)
    ExecCtx.current.device.parallelRanges(n) { (s, e) =>
      var i = s
      while (i < e) {
        var acc = 0L
        var k = 0
        while (k < cols.length) {
          acc = (acc << bits(k)) | (cols(k).data(i) - stats(k)._1)
          k += 1
        }
        out(i) = acc
        i += 1
      }
    }
    Profile.rec("packKeys", OpClass.ElementWise, n, n * 8L * (cols.length + 1))
    Some(I64Tensor(out))
  }

  /** Jointly encode left and right join keys into dense codes `[0, K)`.
    *
    * String keys are dictionary-encoded over the union; composite keys are
    * packed or rank-encoded through a shared sort — so equal tuples on the
    * two sides always receive equal codes, and `bincount(codes, K)` is
    * well-defined for Algorithm 1.
    */
  def encodeJoint(left: Seq[Column], right: Seq[Column]): (I64Tensor, I64Tensor, Int) = {
    require(left.length == right.length && left.nonEmpty, "key arity mismatch")
    val nL = left.head.length
    val nR = right.head.length
    // Combine per-position columns over the union of rows.
    val combined: Seq[I64Tensor] = left.zip(right).map { case (lc, rc) =>
      (lc.dtype, rc.dtype) match {
        case (DType.Str, DType.Str) =>
          val (codes, _) = StringTensor.dictEncode(StringTensor.cat(lc.str, rc.str))
          codes
        case _ =>
          TensorOps.cat(toOrderedI64(lc), toOrderedI64(rc))
      }
    }
    val codes: I64Tensor = {
      val single = combined.length == 1
      val direct = if (single) {
        // Dense direct encoding when the value range is close to the row count
        // (TPC-H integer keys) — keeps Algorithm 1's straight bincount shape.
        val c = combined.head
        if (c.length == 0) Some(c)
        else {
          var mn = Long.MaxValue; var mx = Long.MinValue
          var i = 0
          while (i < c.length) { val v = c.data(i); if (v < mn) mn = v; if (v > mx) mx = v; i += 1 }
          val range = mx - mn
          if (range >= 0 && range <= math.max(64L, 4L * c.length)) {
            val out = new Array[Long](c.length)
            var j = 0
            while (j < c.length) { out(j) = c.data(j) - mn; j += 1 }
            Profile.rec("offsetKeys", OpClass.ElementWise, c.length, c.length * 16L)
            Some(I64Tensor(out))
          } else None
        }
      } else None
      // Otherwise rank-encode through a shared sort over the union.
      direct.getOrElse(groupsOf(combined).rowGroup)
    }
    val k =
      if (codes.length == 0) 0
      else (TensorOps.max(codes) + 1).toInt
    (TensorOps.narrow(codes, 0, nL), TensorOps.narrow(codes, nL, nL + nR), k)
  }
}
