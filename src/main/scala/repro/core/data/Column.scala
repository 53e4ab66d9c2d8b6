package repro.core.data

import repro.tensor._

/** Logical element types of TQP columns.
  *
  * Mirrors §4.1: numerics are `(n×1)` tensors; dates are numeric tensors
  * holding days since the Unix epoch (the paper uses nanoseconds — days are
  * enough for TPC-H and keep the arithmetic exact); strings are `(n×m)`
  * padded character matrices; booleans back bitmaps.
  */
sealed trait DType
object DType {
  case object I64  extends DType
  case object F64  extends DType
  case object Bool extends DType
  case object Str  extends DType
  /** Epoch-day integers, kept distinct for (de)serialization to/from SQL DATE. */
  case object Date extends DType
}

/** One column: a tensor plus an optional validity bitmap (null support).
  *
  * Base TPC-H columns are non-null; validity masks appear on the probe side
  * of left-outer joins and flow through expressions and aggregates.
  */
final case class Column(name: String, dtype: DType, tensor: Tensor,
                        validity: Option[Array[Boolean]] = None) {
  def length: Int = tensor.length

  def i64: I64Tensor    = tensor.asInstanceOf[I64Tensor]
  def f64: F64Tensor    = tensor.asInstanceOf[F64Tensor]
  def bool: BoolTensor  = tensor.asInstanceOf[BoolTensor]
  def str: StringTensor = tensor.asInstanceOf[StringTensor]

  def isValid(i: Int): Boolean = validity.forall(_(i))

  def renamed(n: String): Column = copy(name = n)

  /** Gather rows by index; index -1 produces a NULL row (outer-join padding). */
  def gather(idx: I64Tensor): Column = {
    val n = idx.length
    // A zero-row source can only be gathered by padding: all-null rows.
    if (length == 0) return Column(name, dtype, take(idx), if (n == 0) None else Some(new Array[Boolean](n)))
    val anyNegative = {
      var found = false
      var i = 0
      while (!found && i < n) { found = idx.data(i) < 0; i += 1 }
      found
    }
    if (!anyNegative && validity.isEmpty) Column(name, dtype, take(idx), None)
    else {
      // Clamp negatives to row 0, gather, then mark them (and rows whose
      // source was already null) invalid.
      val clamped = new Array[Long](n)
      val valid   = new Array[Boolean](n)
      var allValid = true
      var i = 0
      while (i < n) {
        val v = idx.data(i)
        if (v < 0) { clamped(i) = 0; valid(i) = false }
        else       { clamped(i) = v; valid(i) = isValid(v.toInt) }
        allValid &&= valid(i)
        i += 1
      }
      Column(name, dtype, take(I64Tensor(clamped)), if (allValid) None else Some(valid))
    }
  }

  /** The tensor's rows at `idx`; from a zero-row tensor, `idx.length` zero (empty-string) rows. */
  private def take(idx: I64Tensor): Tensor = {
    val pad = length == 0
    val n = idx.length
    tensor match {
      case t: I64Tensor    => if (pad) I64Tensor(new Array[Long](n)) else TensorOps.indexSelect(t, idx)
      case t: F64Tensor    => if (pad) F64Tensor(new Array[Double](n)) else TensorOps.indexSelect(t, idx)
      case t: BoolTensor   => if (pad) BoolTensor(new Array[Boolean](n)) else TensorOps.indexSelect(t, idx)
      case t: StringTensor =>
        if (pad) StringTensor.fromStrings(Array.fill(n)("")) else StringTensor.indexSelect(t, idx)
    }
  }

  /** Keep rows where `mask` is set (bitmap filter, §3.1). */
  def select(mask: BoolTensor): Column = gather(TensorOps.nonzero(mask))
}

object Column {
  /** The rows valid in both masks (`None` = all valid), chunk-parallel on the current device. */
  def validWhereBoth(a: Option[Array[Boolean]], b: Option[Array[Boolean]]): Option[Array[Boolean]] =
    (a, b) match {
      case (Some(x), Some(y)) =>
        val out = new Array[Boolean](x.length)
        ExecCtx.current.device.parallelRanges(out.length) { (s, e) => TensorOps.and(x, s, y, s, out, s, e - s) }
        Some(out)
      case _ => a.orElse(b)
    }
}
