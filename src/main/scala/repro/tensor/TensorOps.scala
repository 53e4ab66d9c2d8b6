package repro.tensor

import scala.annotation.switch
import OpClass._

/** The tensor operation surface of the reproduction's TCR.
  *
  * Op names and semantics mirror the PyTorch operations the paper lists in
  * §2.2 (creation, indexing/slicing, reorganization, comparison, arithmetic,
  * join/concat, reduction). Relational operators (§5) are written purely in
  * terms of these ops — the reproduction's analogue of the paper's DC3
  * ("adhere to the TCR API, add no custom operators").
  *
  * Every op: (1) runs its kernel chunk-parallel on the current
  * [[ExecCtx]] device where the class allows it, and (2) records an
  * [[OpRecord]] to the current profile for the simulated-device cost models.
  */
object TensorOps {

  // ------------------------------------------------------------------
  // Creation
  // ------------------------------------------------------------------

  /** `torch.arange(n)` — 0..n-1. */
  def arange(n: Int): I64Tensor = {
    val a = new Array[Long](n)
    ExecCtx.current.device.parallelRanges(n) { (s, e) =>
      var i = s; while (i < e) { a(i) = i; i += 1 }
    }
    Profile.rec("arange", ElementWise, n, n * 8L)
    I64Tensor(a)
  }

  // ------------------------------------------------------------------
  // Element-wise binary ops: one op-coded kernel per element type
  // ------------------------------------------------------------------

  // Op codes. Literal `final val`s, so each `(op: @switch)` is a tableswitch
  // and every (op, type) pair runs its own loop with no per-element dispatch.
  final val Add = 0
  final val Sub = 1
  final val Mul = 2
  final val Div = 3
  final val FloorDiv = 4
  final val Mod = 5

  final val Eq = 0
  final val Ne = 1
  final val Lt = 2
  final val Le = 3
  final val Gt = 4
  final val Ge = 5

  private val arithNames = Array("add", "sub", "mul", "div", "floorDiv", "remainder")
  private val cmpNames   = Array("eq", "ne", "lt", "le", "gt", "ge")

  /** `out(oOff + i) = a(aOff + i) op b(bOff + i)` for `i < n`; `op` is Add, Sub, Mul or Div. */
  def arith(op: Int, a: Array[Double], aOff: Int, b: Array[Double], bOff: Int,
            out: Array[Double], oOff: Int, n: Int): Unit = {
    var i = 0
    (op: @switch) match {
      case Add => while (i < n) { out(oOff + i) = a(aOff + i) + b(bOff + i); i += 1 }
      case Sub => while (i < n) { out(oOff + i) = a(aOff + i) - b(bOff + i); i += 1 }
      case Mul => while (i < n) { out(oOff + i) = a(aOff + i) * b(bOff + i); i += 1 }
      case Div => while (i < n) { out(oOff + i) = a(aOff + i) / b(bOff + i); i += 1 }
      case _   => throw new IllegalArgumentException(s"F64 ${arithNames(op)} unsupported")
    }
  }

  /** `out(oOff + i) = a(aOff + i) op b(bOff + i)` for `i < n`; `op` is Add, Sub,
    * Mul, FloorDiv or Mod (floor semantics, the sign of the divisor, like
    * `torch.remainder`).
    */
  def arith(op: Int, a: Array[Long], aOff: Int, b: Array[Long], bOff: Int,
            out: Array[Long], oOff: Int, n: Int): Unit = {
    var i = 0
    (op: @switch) match {
      case Add      => while (i < n) { out(oOff + i) = a(aOff + i) + b(bOff + i); i += 1 }
      case Sub      => while (i < n) { out(oOff + i) = a(aOff + i) - b(bOff + i); i += 1 }
      case Mul      => while (i < n) { out(oOff + i) = a(aOff + i) * b(bOff + i); i += 1 }
      case FloorDiv => while (i < n) { out(oOff + i) = Math.floorDiv(a(aOff + i), b(bOff + i)); i += 1 }
      case Mod      => while (i < n) { out(oOff + i) = Math.floorMod(a(aOff + i), b(bOff + i)); i += 1 }
      case _        => throw new IllegalArgumentException(s"I64 ${arithNames(op)} unsupported")
    }
  }

  /** `out(oOff + i) = a(aOff + i) op b(bOff + i)` for `i < n` (IEEE: NaN is unequal to everything, -0.0 == 0.0). */
  def cmp(op: Int, a: Array[Double], aOff: Int, b: Array[Double], bOff: Int,
          out: Array[Boolean], oOff: Int, n: Int): Unit = {
    var i = 0
    (op: @switch) match {
      case Eq => while (i < n) { out(oOff + i) = a(aOff + i) == b(bOff + i); i += 1 }
      case Ne => while (i < n) { out(oOff + i) = a(aOff + i) != b(bOff + i); i += 1 }
      case Lt => while (i < n) { out(oOff + i) = a(aOff + i) < b(bOff + i); i += 1 }
      case Le => while (i < n) { out(oOff + i) = a(aOff + i) <= b(bOff + i); i += 1 }
      case Gt => while (i < n) { out(oOff + i) = a(aOff + i) > b(bOff + i); i += 1 }
      case Ge => while (i < n) { out(oOff + i) = a(aOff + i) >= b(bOff + i); i += 1 }
    }
  }

  /** `out(oOff + i) = a(aOff + i) op b(bOff + i)` for `i < n`. */
  def cmp(op: Int, a: Array[Long], aOff: Int, b: Array[Long], bOff: Int,
          out: Array[Boolean], oOff: Int, n: Int): Unit = {
    var i = 0
    (op: @switch) match {
      case Eq => while (i < n) { out(oOff + i) = a(aOff + i) == b(bOff + i); i += 1 }
      case Ne => while (i < n) { out(oOff + i) = a(aOff + i) != b(bOff + i); i += 1 }
      case Lt => while (i < n) { out(oOff + i) = a(aOff + i) < b(bOff + i); i += 1 }
      case Le => while (i < n) { out(oOff + i) = a(aOff + i) <= b(bOff + i); i += 1 }
      case Gt => while (i < n) { out(oOff + i) = a(aOff + i) > b(bOff + i); i += 1 }
      case Ge => while (i < n) { out(oOff + i) = a(aOff + i) >= b(bOff + i); i += 1 }
    }
  }

  // Tensor-level ops. Operand lengths must match, or one side holds one
  // element and is broadcast (PyTorch semantics). A broadcast element is read
  // from one filled buffer of at most `Bcast` elements at offset 0, so the
  // range kernels run on `Bcast`-sized pieces of each chunk.

  private final val Bcast = 4096

  private trait RangeKernel { def run(aOff: Int, bOff: Int, oOff: Int, n: Int): Unit }

  private def broadcastLength(name: String, la: Int, lb: Int): Int =
    if (la == lb || lb == 1) la
    else if (la == 1) lb
    else throw new IllegalArgumentException(s"$name: length mismatch $la vs $lb")

  private def filled(a: Array[Double], n: Int): Array[Double] =
    if (a.length == n) a else { val f = new Array[Double](math.min(n, Bcast)); java.util.Arrays.fill(f, a(0)); f }

  private def filled(a: Array[Long], n: Int): Array[Long] =
    if (a.length == n) a else { val f = new Array[Long](math.min(n, Bcast)); java.util.Arrays.fill(f, a(0)); f }

  /** Runs `k` over `[0, n)` chunk-parallel; an operand of length `< n` is a broadcast buffer. */
  private def runBinary(n: Int, la: Int, lb: Int)(k: RangeKernel): Unit =
    ExecCtx.current.device.parallelRanges(n) { (s, e) =>
      if (la == n && lb == n) k.run(s, s, s, e - s)
      else {
        var lo = s
        while (lo < e) {
          val len = math.min(Bcast, e - lo)
          k.run(if (la == n) lo else 0, if (lb == n) lo else 0, lo, len)
          lo += len
        }
      }
    }

  /** One record per call: 8 bytes per element for each full-length input, plus the output. */
  private def recBinary(name: String, n: Int, la: Int, lb: Int, outBytes: Long): Unit =
    Profile.rec(name, ElementWise, n, n * ((if (la == n) 8L else 0L) + (if (lb == n) 8L else 0L) + outBytes))

  def arith(op: Int, a: F64Tensor, b: F64Tensor): F64Tensor = {
    val n = broadcastLength(arithNames(op), a.length, b.length)
    val x = filled(a.data, n); val y = filled(b.data, n)
    val out = new Array[Double](n)
    runBinary(n, x.length, y.length)((ao, bo, oo, len) => arith(op, x, ao, y, bo, out, oo, len))
    recBinary(arithNames(op), n, a.length, b.length, 8L)
    F64Tensor(out)
  }

  def arith(op: Int, a: I64Tensor, b: I64Tensor): I64Tensor = {
    val n = broadcastLength(arithNames(op), a.length, b.length)
    val x = filled(a.data, n); val y = filled(b.data, n)
    val out = new Array[Long](n)
    runBinary(n, x.length, y.length)((ao, bo, oo, len) => arith(op, x, ao, y, bo, out, oo, len))
    recBinary(arithNames(op), n, a.length, b.length, 8L)
    I64Tensor(out)
  }

  /** Comparison → boolean bitmap (the paper's filter representation, §3.1). */
  def cmp(op: Int, a: F64Tensor, b: F64Tensor): BoolTensor = {
    val n = broadcastLength(cmpNames(op), a.length, b.length)
    val x = filled(a.data, n); val y = filled(b.data, n)
    val out = new Array[Boolean](n)
    runBinary(n, x.length, y.length)((ao, bo, oo, len) => cmp(op, x, ao, y, bo, out, oo, len))
    recBinary(cmpNames(op), n, a.length, b.length, 1L)
    BoolTensor(out)
  }

  def cmp(op: Int, a: I64Tensor, b: I64Tensor): BoolTensor = {
    val n = broadcastLength(cmpNames(op), a.length, b.length)
    val x = filled(a.data, n); val y = filled(b.data, n)
    val out = new Array[Boolean](n)
    runBinary(n, x.length, y.length)((ao, bo, oo, len) => cmp(op, x, ao, y, bo, out, oo, len))
    recBinary(cmpNames(op), n, a.length, b.length, 1L)
    BoolTensor(out)
  }

  // PyTorch-named forwards.
  def sub(a: F64Tensor, b: F64Tensor): F64Tensor = arith(Sub, a, b)
  def mul(a: F64Tensor, b: F64Tensor): F64Tensor = arith(Mul, a, b)
  def div(a: F64Tensor, b: F64Tensor): F64Tensor = arith(Div, a, b)
  def addScalar(a: F64Tensor, v: Double): F64Tensor = arith(Add, a, F64Tensor(Array(v)))
  /** Exact IEEE negation (`-0.0` included): multiplication by −1. */
  def neg(a: F64Tensor): F64Tensor = arith(Mul, a, F64Tensor(Array(-1.0)))

  def add(a: I64Tensor, b: I64Tensor): I64Tensor = arith(Add, a, b)
  def sub(a: I64Tensor, b: I64Tensor): I64Tensor = arith(Sub, a, b)
  def mul(a: I64Tensor, b: I64Tensor): I64Tensor = arith(Mul, a, b)
  /** Integer floor division (used by Algorithm 1, line 13). */
  def floorDiv(a: I64Tensor, b: I64Tensor): I64Tensor = arith(FloorDiv, a, b)
  /** Element-wise remainder (Algorithm 1, line 14). */
  def remainder(a: I64Tensor, b: I64Tensor): I64Tensor = arith(Mod, a, b)
  def remainder(a: I64Tensor, m: Long): I64Tensor = arith(Mod, a, I64Tensor(Array(m)))

  def ge(a: F64Tensor, b: F64Tensor): BoolTensor = cmp(Ge, a, b)
  def le(a: F64Tensor, b: F64Tensor): BoolTensor = cmp(Le, a, b)
  def ltScalar(a: F64Tensor, v: Double): BoolTensor = cmp(Lt, a, F64Tensor(Array(v)))
  def eq(a: I64Tensor, b: I64Tensor): BoolTensor = cmp(Eq, a, b)
  def lt(a: I64Tensor, b: I64Tensor): BoolTensor = cmp(Lt, a, b)
  def ge(a: I64Tensor, b: I64Tensor): BoolTensor = cmp(Ge, a, b)

  def toF64(a: I64Tensor): F64Tensor = {
    val out = new Array[Double](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = a.data(i).toDouble; i += 1 }
    }
    Profile.rec("cast", ElementWise, a.length, a.length * 16L)
    F64Tensor(out)
  }

  def toI64(a: F64Tensor): I64Tensor = {
    val out = new Array[Long](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = a.data(i).toLong; i += 1 }
    }
    Profile.rec("cast", ElementWise, a.length, a.length * 16L)
    I64Tensor(out)
  }

  /** Membership in a small constant set (the paper's IN support). */
  def isin(a: I64Tensor, values: Array[Long]): BoolTensor = {
    val set = values.toSet
    val out = new Array[Boolean](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = set.contains(a.data(i)); i += 1 }
    }
    Profile.rec("isin", ElementWise, a.length, a.length * 9L)
    BoolTensor(out)
  }

  // ------------------------------------------------------------------
  // Logical and null logic. A validity mask holds true for each valid row;
  // a null mask stands for "every row is valid". Both expression backends
  // run these range kernels: the interpreted one on whole columns, the
  // fused one on blocks.
  // ------------------------------------------------------------------

  /** `out(oOff + i) = a(aOff + i) && b(bOff + i)` for `i < n`: the rows valid in both masks. */
  def and(a: Array[Boolean], aOff: Int, b: Array[Boolean], bOff: Int,
          out: Array[Boolean], oOff: Int, n: Int): Unit = {
    var i = 0
    while (i < n) { out(oOff + i) = a(aOff + i) && b(bOff + i); i += 1 }
  }

  /** SQL three-valued (Kleene) AND, or OR if `isOr`, of `a` and `b` with
    * validity masks `aValid` and `bValid`, for `i < n`: writes the value to
    * `out(oOff + i)` and the validity to `valid(oOff + i)`. NULL AND FALSE is
    * FALSE and NULL OR TRUE is TRUE; otherwise a NULL operand makes the row
    * NULL, and a NULL row's value is false. With both masks null every row is
    * valid and `valid` is not written (it may be null).
    */
  def kleene(isOr: Boolean,
             a: Array[Boolean], aOff: Int, aValid: Array[Boolean], avOff: Int,
             b: Array[Boolean], bOff: Int, bValid: Array[Boolean], bvOff: Int,
             out: Array[Boolean], valid: Array[Boolean], oOff: Int, n: Int): Unit = {
    var i = 0
    if (aValid == null && bValid == null) {
      if (isOr) while (i < n) { out(oOff + i) = a(aOff + i) || b(bOff + i); i += 1 }
      else      while (i < n) { out(oOff + i) = a(aOff + i) && b(bOff + i); i += 1 }
    } else {
      val aAll = aValid == null
      val bAll = bValid == null
      if (isOr) while (i < n) {
        val aKnown = aAll || aValid(avOff + i)
        val bKnown = bAll || bValid(bvOff + i)
        val v = (aKnown && a(aOff + i)) || (bKnown && b(bOff + i))
        out(oOff + i) = v
        valid(oOff + i) = v || (aKnown && bKnown)
        i += 1
      } else while (i < n) {
        val aKnown = aAll || aValid(avOff + i)
        val bKnown = bAll || bValid(bvOff + i)
        val falseKnown = (aKnown && !a(aOff + i)) || (bKnown && !b(bOff + i))
        out(oOff + i) = aKnown && bKnown && !falseKnown
        valid(oOff + i) = falseKnown || (aKnown && bKnown)
        i += 1
      }
    }
  }

  def logicalAnd(a: BoolTensor, b: BoolTensor): BoolTensor = logical(isOr = false, a, b)

  def logicalOr(a: BoolTensor, b: BoolTensor): BoolTensor = logical(isOr = true, a, b)

  private def logical(isOr: Boolean, a: BoolTensor, b: BoolTensor): BoolTensor = {
    val name = if (isOr) "logicalOr" else "logicalAnd"
    require(a.length == b.length, s"$name: length mismatch")
    val out = new Array[Boolean](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      kleene(isOr, a.data, s, null, 0, b.data, s, null, 0, out, null, s, e - s)
    }
    Profile.rec(name, ElementWise, a.length, a.length * 3L)
    BoolTensor(out)
  }

  def logicalNot(a: BoolTensor): BoolTensor = {
    val out = new Array[Boolean](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = !a.data(i); i += 1 }
    }
    Profile.rec("logicalNot", ElementWise, a.length, a.length * 2L)
    BoolTensor(out)
  }

  /** `torch.where(cond, a, b)` for doubles. */
  def where(cond: BoolTensor, a: F64Tensor, b: F64Tensor): F64Tensor = {
    require(cond.length == a.length && a.length == b.length, "where: length mismatch")
    val out = new Array[Double](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = if (cond.data(i)) a.data(i) else b.data(i); i += 1 }
    }
    Profile.rec("where", ElementWise, a.length, a.length * 25L)
    F64Tensor(out)
  }

  def where(cond: BoolTensor, a: I64Tensor, b: I64Tensor): I64Tensor = {
    require(cond.length == a.length && a.length == b.length, "where: length mismatch")
    val out = new Array[Long](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = if (cond.data(i)) a.data(i) else b.data(i); i += 1 }
    }
    Profile.rec("where", ElementWise, a.length, a.length * 25L)
    I64Tensor(out)
  }

  // ------------------------------------------------------------------
  // Indexing / selection
  // ------------------------------------------------------------------

  /** `torch.nonzero` — selection-vector form of a bitmap (§3.1). */
  def nonzero(mask: BoolTensor): I64Tensor = {
    val n = mask.length
    var c = 0
    var i = 0
    while (i < n) { if (mask.data(i)) c += 1; i += 1 }
    val out = new Array[Long](c)
    var j = 0; i = 0
    while (i < n) { if (mask.data(i)) { out(j) = i; j += 1 }; i += 1 }
    Profile.rec("nonzero", Materialize, n, n * 1L + c * 8L)
    I64Tensor(out)
  }

  def maskedSelect(a: F64Tensor, mask: BoolTensor): F64Tensor = {
    require(a.length == mask.length, "maskedSelect: length mismatch")
    val idx = countTrue(mask)
    val out = new Array[Double](idx)
    var i = 0; var j = 0
    while (i < a.length) { if (mask.data(i)) { out(j) = a.data(i); j += 1 }; i += 1 }
    Profile.rec("maskedSelect", Materialize, a.length, a.length * 9L + idx * 8L)
    F64Tensor(out)
  }

  def maskedSelect(a: I64Tensor, mask: BoolTensor): I64Tensor = {
    require(a.length == mask.length, "maskedSelect: length mismatch")
    val idx = countTrue(mask)
    val out = new Array[Long](idx)
    var i = 0; var j = 0
    while (i < a.length) { if (mask.data(i)) { out(j) = a.data(i); j += 1 }; i += 1 }
    Profile.rec("maskedSelect", Materialize, a.length, a.length * 9L + idx * 8L)
    I64Tensor(out)
  }

  private def countTrue(mask: BoolTensor): Int = {
    var c = 0; var i = 0
    while (i < mask.length) { if (mask.data(i)) c += 1; i += 1 }
    c
  }

  /** `torch.index_select` / gather along dim 0. */
  def indexSelect(a: F64Tensor, idx: I64Tensor): F64Tensor = {
    val out = new Array[Double](idx.length)
    ExecCtx.current.device.parallelRanges(idx.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = a.data(idx.data(i).toInt); i += 1 }
    }
    Profile.rec("indexSelect", Gather, idx.length, idx.length * 24L)
    F64Tensor(out)
  }

  def indexSelect(a: I64Tensor, idx: I64Tensor): I64Tensor = {
    val out = new Array[Long](idx.length)
    ExecCtx.current.device.parallelRanges(idx.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = a.data(idx.data(i).toInt); i += 1 }
    }
    Profile.rec("indexSelect", Gather, idx.length, idx.length * 24L)
    I64Tensor(out)
  }

  def indexSelect(a: BoolTensor, idx: I64Tensor): BoolTensor = {
    val out = new Array[Boolean](idx.length)
    ExecCtx.current.device.parallelRanges(idx.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = a.data(idx.data(i).toInt); i += 1 }
    }
    Profile.rec("indexSelect", Gather, idx.length, idx.length * 10L)
    BoolTensor(out)
  }

  /** Slice `[from, until)` — `torch.narrow`. */
  def narrow(a: I64Tensor, from: Int, until: Int): I64Tensor = {
    Profile.rec("narrow", Materialize, until - from, (until - from) * 8L)
    I64Tensor(java.util.Arrays.copyOfRange(a.data, from, until))
  }

  def narrow(a: F64Tensor, from: Int, until: Int): F64Tensor = {
    Profile.rec("narrow", Materialize, until - from, (until - from) * 8L)
    F64Tensor(java.util.Arrays.copyOfRange(a.data, from, until))
  }

  // ------------------------------------------------------------------
  // Concatenation (the paper's "Join" tensor-op category)
  // ------------------------------------------------------------------

  def cat(a: I64Tensor, b: I64Tensor): I64Tensor = {
    val out = new Array[Long](a.length + b.length)
    System.arraycopy(a.data, 0, out, 0, a.length)
    System.arraycopy(b.data, 0, out, a.length, b.length)
    Profile.rec("cat", Materialize, out.length, out.length * 16L)
    I64Tensor(out)
  }

  // ------------------------------------------------------------------
  // Sort (radix argsort — the paper's aggregation uses radix sort, §5.4)
  // ------------------------------------------------------------------

  /** Stable ascending argsort of signed longs; returns the permutation. */
  def argsort(keys: I64Tensor): I64Tensor = {
    Profile.rec("sort", Sort, keys.length, keys.length * 16L * 4L)
    I64Tensor(RadixSort.argsortLong(keys.data, descending = false))
  }

  def argsortDescending(keys: I64Tensor): I64Tensor = {
    Profile.rec("sort", Sort, keys.length, keys.length * 16L * 4L)
    I64Tensor(RadixSort.argsortLong(keys.data, descending = true))
  }

  /** `torch.sort` — returns (sortedValues, argsortIndices). */
  def sort(keys: I64Tensor): (I64Tensor, I64Tensor) = {
    val idx = argsort(keys)
    (indexSelect(keys, idx), idx)
  }

  // ------------------------------------------------------------------
  // Histograms / prefix sums / search (the sort-join toolkit, Alg. 1)
  // ------------------------------------------------------------------

  /** `torch.bincount` — values must be in `[0, minLength)` or smaller. */
  def bincount(a: I64Tensor, minLength: Int): I64Tensor = {
    val out = new Array[Long](minLength)
    var i = 0
    while (i < a.length) {
      val v = a.data(i).toInt
      require(v >= 0 && v < minLength, s"bincount: value $v out of [0, $minLength)")
      out(v) += 1
      i += 1
    }
    Profile.rec("bincount", Scatter, a.length, a.length * 8L + minLength * 8L)
    I64Tensor(out)
  }

  /** `torch.cumsum(dim=0)` — inclusive prefix sum. */
  def cumsum(a: I64Tensor): I64Tensor = {
    val out = new Array[Long](a.length)
    var acc = 0L; var i = 0
    while (i < a.length) { acc += a.data(i); out(i) = acc; i += 1 }
    Profile.rec("cumsum", Reduction, a.length, a.length * 16L)
    I64Tensor(out)
  }

  /** `torch.bucketize(v, boundaries)` (right=True): count of boundaries <= v,
    * i.e. index of the first boundary strictly greater than v. Parallel
    * binary search per element — Alg. 1 line 11.
    */
  def bucketize(values: I64Tensor, boundaries: I64Tensor): I64Tensor = {
    val out = new Array[Long](values.length)
    val b = boundaries.data
    ExecCtx.current.device.parallelRanges(values.length) { (s, e) =>
      var i = s
      while (i < e) {
        val v = values.data(i)
        var lo = 0; var hi = b.length
        while (lo < hi) {
          val mid = (lo + hi) >>> 1
          if (b(mid) <= v) lo = mid + 1 else hi = mid
        }
        out(i) = lo
        i += 1
      }
    }
    val logB = math.max(1, 64 - java.lang.Long.numberOfLeadingZeros(math.max(1L, b.length.toLong)))
    Profile.rec("bucketize", Search, values.length, values.length.toLong * 8L * logB)
    I64Tensor(out)
  }

  // ------------------------------------------------------------------
  // Unique (aggregation toolkit, Alg. 3)
  // ------------------------------------------------------------------

  /** `torch.unique_consecutive(return_inverse=True, return_counts=True)`.
    * Single-threaded by design — mirrors PyTorch's CPU implementation, the
    * scaling bottleneck the paper calls out in §6.3.
    */
  def uniqueConsecutive(a: I64Tensor): (I64Tensor, I64Tensor, I64Tensor) = {
    val n = a.length
    if (n == 0) return (I64Tensor(Array.empty), I64Tensor(Array.empty), I64Tensor(Array.empty))
    val inv = new Array[Long](n)
    var nU = 1
    var i = 1
    while (i < n) { if (a.data(i) != a.data(i - 1)) nU += 1; i += 1 }
    val uniq   = new Array[Long](nU)
    val counts = new Array[Long](nU)
    uniq(0) = a.data(0); counts(0) = 1; inv(0) = 0
    var u = 0; i = 1
    while (i < n) {
      if (a.data(i) != a.data(i - 1)) { u += 1; uniq(u) = a.data(i) }
      counts(u) += 1
      inv(i) = u
      i += 1
    }
    Profile.rec("uniqueConsecutive", Unique, n, n * 24L)
    (I64Tensor(uniq), I64Tensor(inv), I64Tensor(counts))
  }

  // ------------------------------------------------------------------
  // Scatter reductions (grouped aggregates: scatter_add / min / max)
  // ------------------------------------------------------------------

  // Op codes, literal `final val`s like the element-wise ones.
  final val Sum = 0
  final val Min = 1
  final val Max = 2

  private val reduceNames = Array("Add", "Min", "Max").map("scatter" + _)

  /** `out(g)` = the Sum, Min or Max of `values(i)` over the rows `i` with
    * `segIds(i) == g`, for `g < nSeg`; an empty segment holds 0 (Sum), the
    * largest value (Min) or the smallest value (Max).
    */
  def scatterReduce(op: Int, values: F64Tensor, segIds: I64Tensor, nSeg: Int): F64Tensor = {
    require(values.length == segIds.length, s"${reduceNames(op)}: length mismatch")
    val v = values.data; val seg = segIds.data
    val out = new Array[Double](nSeg)
    var i = 0
    (op: @switch) match {
      case Sum => while (i < v.length) { out(seg(i).toInt) += v(i); i += 1 }
      case Min =>
        java.util.Arrays.fill(out, Double.PositiveInfinity)
        while (i < v.length) { val g = seg(i).toInt; if (v(i) < out(g)) out(g) = v(i); i += 1 }
      case Max =>
        java.util.Arrays.fill(out, Double.NegativeInfinity)
        while (i < v.length) { val g = seg(i).toInt; if (v(i) > out(g)) out(g) = v(i); i += 1 }
    }
    Profile.rec(reduceNames(op), Scatter, v.length, v.length * 24L)
    F64Tensor(out)
  }

  def scatterReduce(op: Int, values: I64Tensor, segIds: I64Tensor, nSeg: Int): I64Tensor = {
    require(values.length == segIds.length, s"${reduceNames(op)}: length mismatch")
    val v = values.data; val seg = segIds.data
    val out = new Array[Long](nSeg)
    var i = 0
    (op: @switch) match {
      case Sum => while (i < v.length) { out(seg(i).toInt) += v(i); i += 1 }
      case Min =>
        java.util.Arrays.fill(out, Long.MaxValue)
        while (i < v.length) { val g = seg(i).toInt; if (v(i) < out(g)) out(g) = v(i); i += 1 }
      case Max =>
        java.util.Arrays.fill(out, Long.MinValue)
        while (i < v.length) { val g = seg(i).toInt; if (v(i) > out(g)) out(g) = v(i); i += 1 }
    }
    Profile.rec(reduceNames(op), Scatter, v.length, v.length * 24L)
    I64Tensor(out)
  }

  def scatterAdd(values: F64Tensor, segIds: I64Tensor, nSeg: Int): F64Tensor = scatterReduce(Sum, values, segIds, nSeg)
  def scatterAdd(values: I64Tensor, segIds: I64Tensor, nSeg: Int): I64Tensor = scatterReduce(Sum, values, segIds, nSeg)

  /** `scatter_` with overwrite semantics (last write wins) — the hash-table
    * build primitive of Algorithm 2 line 8.
    */
  def scatterOverwrite(target: I64Tensor, index: I64Tensor, src: I64Tensor): I64Tensor = {
    require(index.length == src.length, "scatterOverwrite: length mismatch")
    val out = target.data.clone()
    var i = 0
    while (i < index.length) { out(index.data(i).toInt) = src.data(i); i += 1 }
    Profile.rec("scatter", Scatter, index.length, index.length * 24L)
    I64Tensor(out)
  }

  // ------------------------------------------------------------------
  // Global reductions
  // ------------------------------------------------------------------

  def sum(a: F64Tensor): Double = {
    val dev = ExecCtx.current.device
    Profile.rec("sum", Reduction, a.length, a.length * 8L)
    if (dev.threads == 1 || a.length < 65536) {
      var acc = 0.0; var i = 0
      while (i < a.length) { acc += a.data(i); i += 1 }
      acc
    } else {
      // Partials keyed by chunk start and added in chunk order, so the
      // result does not depend on which chunk finishes first.
      val parts = new java.util.concurrent.ConcurrentSkipListMap[Integer, java.lang.Double]()
      dev.parallelRanges(a.length) { (s, e) =>
        var acc = 0.0; var i = s
        while (i < e) { acc += a.data(i); i += 1 }
        parts.put(s, acc)
      }
      var acc = 0.0
      parts.values.forEach(d => acc += d)
      acc
    }
  }

  def max(a: I64Tensor): Long = {
    require(a.length > 0, "max of empty tensor")
    Profile.rec("max", Reduction, a.length, a.length * 8L)
    var m = Long.MinValue; var i = 0
    while (i < a.length) { if (a.data(i) > m) m = a.data(i); i += 1 }
    m
  }

  def any(a: BoolTensor): Boolean = {
    Profile.rec("any", Reduction, a.length, a.length * 1L)
    var i = 0
    while (i < a.length) { if (a.data(i)) return true; i += 1 }
    false
  }
}
