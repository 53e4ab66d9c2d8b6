package repro.core.expr

import repro.core.data.{Column, DType, TensorTable}
import repro.tensor._
import Expr._

/** Compiled ("TorchScript"-style, the paper's TQPJ) expression evaluation.
  *
  * The whole expression tree is fused into block-granular kernels: rows are
  * processed in cache-resident blocks; each node computes its block into a
  * small reusable scratch buffer with a tight primitive loop; leaves are
  * zero-copy views (array + offset) into the input columns; and no
  * full-size intermediate tensors are materialized. One dispatch per node
  * *per block* (amortized to nothing), versus the interpreted path's one
  * full-size tensor per node — the same interpreted-vs-compiled trade the
  * paper measures (§2.1, §6.1), realized the way a JVM fusion engine must.
  *
  * String *predicates* (LIKE, prefix/suffix/contains, substring, string
  * comparisons) are pre-lowered to bitmaps with the vectorized string
  * kernels and enter the fused kernel as leaf vectors — analogous to
  * TorchScript falling back to library kernels for ops it cannot fuse.
  */
object ExprCompiler extends ExprBackend {

  private val Block = 4096

  /** A fused node. After `ensure(lo, hi)`:
    *  - typed output lives in `outD`/`outL`/`outB` at offset `base`
    *    (leaves alias the input column with `base = lo`; computed nodes use
    *    base-0 scratch);
    *  - `outValid` holds per-row validity (true = valid) at offset `vBase`,
    *    or is null if the whole block is valid. Leaves alias their column's
    *    validity mask; a node whose rows are valid where one child's are
    *    aliases that child's mask.
    */
  sealed abstract class CE(val dtype: DType) {
    private var curLo = -1
    private var curHi = -1
    var outD: Array[Double] = _
    var outL: Array[Long] = _
    var outB: Array[Boolean] = _
    var base: Int = 0
    var outValid: Array[Boolean] = _
    var vBase: Int = 0

    final def ensure(lo: Int, hi: Int): Unit =
      if (curLo != lo || curHi != hi) { compute(lo, hi); curLo = lo; curHi = hi }

    protected def compute(lo: Int, hi: Int): Unit

    /** Row `i` of the block is valid. */
    final def isValid(i: Int): Boolean = outValid == null || outValid(vBase + i)

    /** This node's rows are valid where `e`'s are. */
    protected final def validAs(e: CE): Unit = { outValid = e.outValid; vBase = e.vBase }

    /** This node's rows are valid where both `l`'s and `r`'s are (`buf` holds the AND if needed). */
    protected final def validWhereBoth(l: CE, r: CE, buf: Array[Boolean], n: Int): Unit =
      if (l.outValid == null) validAs(r)
      else if (r.outValid == null) validAs(l)
      else {
        TensorOps.and(l.outValid, l.vBase, r.outValid, r.vBase, buf, 0, n)
        outValid = buf; vBase = 0
      }

    // Conversion views (filled lazily; base 0).
    private var convD: Array[Double] = _
    private var convL: Array[Long] = _

    /** Block values as doubles; sets `dBase` to the offset to use. */
    var dBase: Int = 0
    final def blockD(n: Int): Array[Double] =
      if (outD != null) { dBase = base; outD }
      else {
        if (convD == null) convD = new Array[Double](Block)
        val b = base
        var i = 0
        while (i < n) { convD(i) = outL(b + i).toDouble; i += 1 }
        dBase = 0
        convD
      }

    var lBase: Int = 0
    final def blockL(n: Int): Array[Long] =
      if (outL != null) { lBase = base; outL }
      else {
        if (convL == null) convL = new Array[Long](Block)
        val b = base
        var i = 0
        while (i < n) { convL(i) = outD(b + i).toLong; i += 1 }
        lBase = 0
        convL
      }
  }

  // ---------------- leaves and constants ----------------

  /** A zero-copy view of a column: its values and validity mask at offset `lo`. */
  private final class Leaf(c: Column) extends CE(c.dtype) {
    c.tensor match {
      case F64Tensor(d)  => outD = d
      case I64Tensor(d)  => outL = d
      case BoolTensor(d) => outB = d
      case _ => throw new IllegalStateException("string leaf must be consumed by a string kernel")
    }
    outValid = c.validity.orNull
    protected def compute(lo: Int, hi: Int): Unit = { base = lo; vBase = lo }
  }

  /** A block of the constant `v` of type `dt`, or of SQL NULL if `v` is null. */
  private final class Const(v: Any, dt: DType) extends CE(dt) {
    dt match {
      case DType.F64  => outD = F64Tensor.fill(Block, if (v == null) 0.0 else v.asInstanceOf[Double]).data
      case DType.Bool => outB = BoolTensor.fill(Block, v == true).data
      case DType.Str  => throw new IllegalStateException("string literal must be folded by parent")
      case _          => outL = I64Tensor.fill(Block, if (v == null) 0L else v.asInstanceOf[Long]).data
    }
    if (v == null) outValid = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = ()
  }

  // ---------------- numeric operators ----------------

  // Arithmetic and comparison run TensorOps' op-coded range kernels on the
  // block buffers, the same loops the interpreted path runs on whole columns.

  private final class ArithNode(op: Int, l: CE, r: CE, dt: DType) extends CE(dt) {
    private val asD = dt == DType.F64
    if (asD) outD = new Array[Double](Block) else outL = new Array[Long](Block)
    private val validBuf = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      l.ensure(lo, hi); r.ensure(lo, hi)
      val n = hi - lo
      base = 0
      validWhereBoth(l, r, validBuf, n)
      if (asD) {
        val a = l.blockD(n); val ab = l.dBase
        val b = r.blockD(n); val bb = r.dBase
        TensorOps.arith(op, a, ab, b, bb, outD, 0, n)
        if (op == TensorOps.Div) nullWhereZero(b, bb, n)
      } else {
        val a = l.blockL(n); val ab = l.lBase
        val b = r.blockL(n); val bb = r.lBase
        TensorOps.arith(op, a, ab, b, bb, outL, 0, n)
      }
    }

    /** x / 0 is NULL (DuckDB; Spark's try_divide): rows whose divisor is zero
      * become invalid, in `validBuf` (a copy of the validity so far, since
      * `outValid` may alias a child's mask).
      */
    private def nullWhereZero(b: Array[Double], bb: Int, n: Int): Unit = {
      var i = 0
      while (i < n) {
        if (b(bb + i) == 0.0) {
          if (outValid ne validBuf) {
            if (outValid == null) java.util.Arrays.fill(validBuf, 0, n, true)
            else System.arraycopy(outValid, vBase, validBuf, 0, n)
            outValid = validBuf; vBase = 0
          }
          validBuf(i) = false
        }
        i += 1
      }
    }
  }

  private final class CmpNode(op: Int, l: CE, r: CE, asD: Boolean) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    private val validBuf = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      l.ensure(lo, hi); r.ensure(lo, hi)
      val n = hi - lo
      base = 0
      if (asD) {
        val a = l.blockD(n); val ab = l.dBase
        val b = r.blockD(n); val bb = r.dBase
        TensorOps.cmp(op, a, ab, b, bb, outB, 0, n)
      } else {
        val a = l.blockL(n); val ab = l.lBase
        val b = r.blockL(n); val bb = r.lBase
        TensorOps.cmp(op, a, ab, b, bb, outB, 0, n)
      }
      validWhereBoth(l, r, validBuf, n)
    }
  }

  // ---------------- boolean connectives, IN, null tests ----------------

  /** Kleene AND, or OR if `isOr` (TensorOps.kleene). */
  private final class KleeneNode(isOr: Boolean, l: CE, r: CE) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    private val validBuf = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      l.ensure(lo, hi); r.ensure(lo, hi)
      base = 0
      TensorOps.kleene(isOr, l.outB, l.base, l.outValid, l.vBase, r.outB, r.base, r.outValid, r.vBase,
        outB, validBuf, 0, hi - lo)
      outValid = if (l.outValid == null && r.outValid == null) null else validBuf
      vBase = 0
    }
  }

  private final class NotNode(e: CE) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      val a = e.outB; val ab = e.base
      base = 0
      var i = 0
      while (i < n) { outB(i) = !a(ab + i); i += 1 }
      validAs(e)
    }
  }

  /** Membership of a numeric value in a constant set, compared as F64 or I64 by `e`'s type. */
  private final class InNode(e: CE, values: Seq[Any]) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    private val asD = e.dtype == DType.F64
    private val set: Set[Any] = values.map[Any](v => if (asD) ExprEval.numAsDouble(v) else ExprEval.numAsLong(v)).toSet
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      base = 0
      var i = 0
      if (asD) { val a = e.blockD(n); val ab = e.dBase; while (i < n) { outB(i) = set.contains(a(ab + i)); i += 1 } }
      else     { val a = e.blockL(n); val ab = e.lBase; while (i < n) { outB(i) = set.contains(a(ab + i)); i += 1 } }
      validAs(e)
    }
  }

  /** IS NULL, or IS NOT NULL if `isNotNull`: never NULL itself. */
  private final class NullTestNode(e: CE, isNotNull: Boolean) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      val v = e.outValid; val vb = e.vBase
      base = 0
      if (v == null) java.util.Arrays.fill(outB, 0, n, isNotNull)
      else { var i = 0; while (i < n) { outB(i) = v(vb + i) == isNotNull; i += 1 } }
      outValid = null
    }
  }

  /** CASE over numeric results: `vals` holds one value per condition, then the ELSE value. */
  private final class CaseNode(conds: Array[CE], vals: Array[CE], dt: DType) extends CE(dt) {
    private val asD = dt == DType.F64
    if (asD) outD = new Array[Double](Block) else outL = new Array[Long](Block)
    private val validBuf = new Array[Boolean](Block)
    // Per-value block buffers and offsets, hoisted out of the row loop.
    private val srcD = new Array[Array[Double]](vals.length)
    private val srcL = new Array[Array[Long]](vals.length)
    private val srcOff = new Array[Int](vals.length)
    protected def compute(lo: Int, hi: Int): Unit = {
      val n = hi - lo
      conds.foreach(_.ensure(lo, hi))
      vals.foreach(_.ensure(lo, hi))
      var k = 0
      while (k < vals.length) {
        val v = vals(k)
        if (asD) { srcD(k) = v.blockD(n); srcOff(k) = v.dBase }
        else     { srcL(k) = v.blockL(n); srcOff(k) = v.lBase }
        k += 1
      }
      base = 0
      var i = 0
      while (i < n) {
        k = 0
        while (k < conds.length && !(conds(k).isValid(i) && conds(k).outB(conds(k).base + i))) k += 1
        val ok = vals(k).isValid(i)
        if (asD) outD(i) = if (ok) srcD(k)(srcOff(k) + i) else 0.0
        else     outL(i) = if (ok) srcL(k)(srcOff(k) + i) else 0L
        validBuf(i) = ok
        i += 1
      }
      outValid = validBuf; vBase = 0
    }
  }

  private final class YearNode(e: CE) extends CE(DType.I64) {
    outL = new Array[Long](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      val a = e.blockL(n)
      base = 0
      ExprEval.years(a, e.lBase, outL, 0, n)
      validAs(e)
    }
  }

  private final class CastNode(e: CE, dt: DType) extends CE(dt) {
    private val asD = dt == DType.F64
    outD = if (asD) new Array[Double](Block) else null
    outL = if (asD) null else new Array[Long](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      base = 0
      if (asD) { val a = e.blockD(n); System.arraycopy(a, e.dBase, outD, 0, n) }
      else { val a = e.blockL(n); System.arraycopy(a, e.lBase, outL, 0, n) }
      validAs(e)
    }
  }

  // ---------------- compilation ----------------

  /** Compile an expression against a bound input table. String-valued
    * subtrees are pre-lowered via the interpreted evaluator (vectorized
    * string kernels) and enter as leaves.
    */
  def compile(e: Expr, table: TensorTable, env: ExecEnv): CE = e match {
    case ColRef(n, _)     => new Leaf(table.column(n))
    case Lit(v, dt)       => new Const(v, dt)
    case NullLit(dt)      => new Const(null, dt)
    case ScalarSub(i, dt) => new Const(env.subquery(i), dt)

    case a @ Arith(kind, l, r) => new ArithNode(kind.op, compile(l, table, env), compile(r, table, env), a.dtype)

    case Neg(x) =>
      val minusOne = if (x.dtype == DType.F64) new Const(-1.0, DType.F64) else new Const(-1L, DType.I64)
      new ArithNode(TensorOps.Mul, compile(x, table, env), minusOne, x.dtype)

    case c: Cmp if c.operandType == DType.Str => vectorFallback(e, table, env)
    case c @ Cmp(kind, l, r) =>
      new CmpNode(kind.op, compile(l, table, env), compile(r, table, env), c.operandType == DType.F64)

    case And(l, r) => new KleeneNode(isOr = false, compile(l, table, env), compile(r, table, env))
    case Or(l, r)  => new KleeneNode(isOr = true, compile(l, table, env), compile(r, table, env))
    case Not(x)    => new NotNode(compile(x, table, env))

    case InValues(x, _) if x.dtype == DType.Str => vectorFallback(e, table, env)
    case InValues(x, values) => new InNode(compile(x, table, env), values)

    case (IsNull(_) | IsNotNull(_)) if e.children.head.dtype == DType.Str => vectorFallback(e, table, env)
    case IsNull(x)    => new NullTestNode(compile(x, table, env), isNotNull = false)
    case IsNotNull(x) => new NullTestNode(compile(x, table, env), isNotNull = true)

    case cw @ CaseWhen(branches, elseValue) =>
      require(cw.supported, s"CASE over ${cw.dtype} unsupported")
      val conds = branches.map { case (c, _) => compile(c, table, env) }
      val vals  = branches.map { case (_, v) => compile(v, table, env) } :+
        elseValue.map(compile(_, table, env)).getOrElse(new Const(null, cw.dtype))
      new CaseNode(conds.toArray, vals.toArray, cw.dtype)

    case CastTo(x, dt) =>
      val c = compile(x, table, env)
      (x.dtype, dt) match {
        case (a, b) if a == b => c
        case (DType.Str, _) | (_, DType.Str) => vectorFallback(e, table, env)
        case _ => new CastNode(c, dt)
      }

    case StrPred(_, _, _) | Substr(_, _, _) => vectorFallback(e, table, env)

    case Year(x) => new YearNode(compile(x, table, env))
  }

  /** Pre-lower a string-touching subtree via the vectorized interpreter. */
  private def vectorFallback(e: Expr, table: TensorTable, env: ExecEnv): CE =
    new Leaf(ExprEval.evalToColumn(e, table, env))

  /** Evaluate a whole expression fused block-by-block into a Column. */
  def evalToColumn(e: Expr, table: TensorTable, env: ExecEnv, name: String): Column = {
    if (e.dtype == DType.Str) return ExprEval.evalToColumn(e, table, env, name)
    // A bare column reference needs no kernel at all — alias the column.
    e match {
      case ColRef(n, _) => return table.column(n).renamed(name)
      case _ => ()
    }
    val n  = table.numRows
    val ce = compile(e, table, env)
    val out: Tensor = e.dtype match {
      case DType.F64  => F64Tensor(new Array[Double](n))
      case DType.Bool => BoolTensor(new Array[Boolean](n))
      case _          => I64Tensor(new Array[Long](n))
    }
    // Allocated at the first block with a NULL row, so a null-free result has no mask.
    var valid: Array[Boolean] = null
    var lo = 0
    while (lo < n) {
      val hi = math.min(n, lo + Block)
      val m = hi - lo
      ce.ensure(lo, hi)
      out match {
        case F64Tensor(d)  => System.arraycopy(ce.blockD(m), ce.dBase, d, lo, m)
        case BoolTensor(d) => System.arraycopy(ce.outB, ce.base, d, lo, m)
        case I64Tensor(d)  => System.arraycopy(ce.blockL(m), ce.lBase, d, lo, m)
      }
      val bv = ce.outValid
      if (valid == null && bv != null) {
        var i = 0
        while (i < m && bv(ce.vBase + i)) i += 1
        if (i < m) { valid = new Array[Boolean](n); java.util.Arrays.fill(valid, 0, lo, true) }
      }
      if (valid != null) {
        if (bv == null) java.util.Arrays.fill(valid, lo, hi, true)
        else System.arraycopy(bv, ce.vBase, valid, lo, m)
      }
      lo = hi
    }
    Profile.rec("fusedExpr", OpClass.ElementWise, n, n.toLong * 8L * (countNodes(e) + 1))
    Column(name, e.dtype, out, Option(valid))
  }

  /** Fused filter mask (NULL ⇒ false). */
  def evalMask(e: Expr, table: TensorTable, env: ExecEnv): BoolTensor = {
    val n  = table.numRows
    val ce = compile(e, table, env)
    val out = new Array[Boolean](n)
    var lo = 0
    while (lo < n) {
      val hi = math.min(n, lo + Block)
      ce.ensure(lo, hi)
      if (ce.outValid == null) System.arraycopy(ce.outB, ce.base, out, lo, hi - lo)
      else TensorOps.and(ce.outB, ce.base, ce.outValid, ce.vBase, out, lo, hi - lo)
      lo = hi
    }
    Profile.rec("fusedFilter", OpClass.ElementWise, n, n.toLong * (8L * countNodes(e) + 1))
    BoolTensor(out)
  }

  private def countNodes(e: Expr): Int = 1 + e.children.map(countNodes).sum
}
