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
    *  - `outNulls` holds base-0 per-row invalid flags, or null if the whole
    *    block is valid.
    */
  sealed abstract class CE(val dtype: DType) {
    private var curLo = -1
    private var curHi = -1
    var outD: Array[Double] = _
    var outL: Array[Long] = _
    var outB: Array[Boolean] = _
    var base: Int = 0
    var outNulls: Array[Boolean] = _

    final def ensure(lo: Int, hi: Int): Unit =
      if (curLo != lo || curHi != hi) { compute(lo, hi); curLo = lo; curHi = hi }

    protected def compute(lo: Int, hi: Int): Unit

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

  // ---------------- leaves (zero-copy views) ----------------

  private final class LeafD(src: Array[Double], valid: Array[Boolean]) extends CE(DType.F64) {
    outD = src
    private val nullBuf = if (valid == null) null else new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      base = lo
      outNulls = copyNulls(valid, nullBuf, lo, hi)
    }
  }

  private final class LeafL(src: Array[Long], valid: Array[Boolean], dt: DType) extends CE(dt) {
    outL = src
    private val nullBuf = if (valid == null) null else new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      base = lo
      outNulls = copyNulls(valid, nullBuf, lo, hi)
    }
  }

  private final class LeafB(src: Array[Boolean], valid: Array[Boolean]) extends CE(DType.Bool) {
    outB = src
    private val nullBuf = if (valid == null) null else new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      base = lo
      outNulls = copyNulls(valid, nullBuf, lo, hi)
    }
  }

  private def copyNulls(valid: Array[Boolean], buf: Array[Boolean], lo: Int, hi: Int): Array[Boolean] = {
    if (valid == null) return null
    var any = false
    var i = lo
    while (i < hi) { if (!valid(i)) { any = true; i = hi } else i += 1 }
    if (!any) return null
    i = lo
    while (i < hi) { buf(i - lo) = !valid(i); i += 1 }
    buf
  }

  private final class ConstD(v: Double) extends CE(DType.F64) {
    outD = Array.fill(Block)(v)
    protected def compute(lo: Int, hi: Int): Unit = ()
  }
  private final class ConstL(v: Long, dt: DType) extends CE(dt) {
    outL = Array.fill(Block)(v)
    protected def compute(lo: Int, hi: Int): Unit = ()
  }
  private final class ConstB(v: Boolean) extends CE(DType.Bool) {
    outB = Array.fill(Block)(v)
    protected def compute(lo: Int, hi: Int): Unit = ()
  }
  private final class ConstNull(dt: DType) extends CE(dt) {
    outD = if (dt == DType.F64) new Array[Double](Block) else null
    outB = if (dt == DType.Bool) new Array[Boolean](Block) else null
    outL = if (outD == null && outB == null) new Array[Long](Block) else null
    outNulls = Array.fill(Block)(true)
    protected def compute(lo: Int, hi: Int): Unit = ()
  }

  // ---------------- numeric operators ----------------

  // Arithmetic and comparison run TensorOps' op-coded range kernels on the
  // block buffers, the same loops the interpreted path runs on whole columns.

  private final class ArithNode(op: Int, l: CE, r: CE, dt: DType) extends CE(dt) {
    private val asD = dt == DType.F64
    if (asD) outD = new Array[Double](Block) else outL = new Array[Long](Block)
    private val nullBuf = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      l.ensure(lo, hi); r.ensure(lo, hi)
      val n = hi - lo
      base = 0
      outNulls = orNulls(l.outNulls, r.outNulls, nullBuf, n)
      if (asD) {
        val a = l.blockD(n); val ab = l.dBase
        val b = r.blockD(n); val bb = r.dBase
        TensorOps.arith(op, a, ab, b, bb, outD, 0, n)
        if (op == TensorOps.Div) outNulls = nullWhereZero(b, bb, outNulls, nullBuf, n)
      } else {
        val a = l.blockL(n); val ab = l.lBase
        val b = r.blockL(n); val bb = r.lBase
        TensorOps.arith(op, a, ab, b, bb, outL, 0, n)
      }
    }
  }

  private final class CmpNode(op: Int, l: CE, r: CE, asD: Boolean) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    private val nullBuf = new Array[Boolean](Block)
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
      outNulls = orNulls(l.outNulls, r.outNulls, nullBuf, n)
    }
  }

  /** x / 0 is NULL (DuckDB; Spark's try_divide): marks the block's rows whose
    * divisor is zero in `nulls` (or in `buf`, cleared first, if `nulls` is null).
    */
  private def nullWhereZero(b: Array[Double], bb: Int, nulls: Array[Boolean], buf: Array[Boolean], n: Int): Array[Boolean] = {
    var out = nulls
    var i = 0
    while (i < n) {
      if (b(bb + i) == 0.0) {
        if (out == null) { java.util.Arrays.fill(buf, 0, n, false); out = buf }
        out(i) = true
      }
      i += 1
    }
    out
  }

  private def orNulls(a: Array[Boolean], b: Array[Boolean], buf: Array[Boolean], n: Int): Array[Boolean] = {
    if (a == null && b == null) return null
    var i = 0
    if (a == null) { while (i < n) { buf(i) = b(i); i += 1 } }
    else if (b == null) { while (i < n) { buf(i) = a(i); i += 1 } }
    else { while (i < n) { buf(i) = a(i) || b(i); i += 1 } }
    buf
  }

  // ---------------- boolean connectives (Kleene) ----------------

  private final class AndNode(l: CE, r: CE) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    private val nullBuf = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      l.ensure(lo, hi); r.ensure(lo, hi)
      val n = hi - lo
      val la = l.outB; val lb = l.base
      val ra = r.outB; val rb = r.base
      val ln = l.outNulls; val rn = r.outNulls
      base = 0
      if (ln == null && rn == null) {
        var i = 0
        while (i < n) { outB(i) = la(lb + i) && ra(rb + i); i += 1 }
        outNulls = null
      } else {
        var any = false
        var i = 0
        while (i < n) {
          val lNull = ln != null && ln(i)
          val rNull = rn != null && rn(i)
          val lv = !lNull && la(lb + i)
          val rv = !rNull && ra(rb + i)
          val falseKnown = (!lNull && !la(lb + i)) || (!rNull && !ra(rb + i))
          outB(i) = lv && rv
          nullBuf(i) = !(falseKnown || (!lNull && !rNull))
          any ||= nullBuf(i)
          i += 1
        }
        outNulls = if (any) nullBuf else null
      }
    }
  }

  private final class OrNode(l: CE, r: CE) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    private val nullBuf = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      l.ensure(lo, hi); r.ensure(lo, hi)
      val n = hi - lo
      val la = l.outB; val lb = l.base
      val ra = r.outB; val rb = r.base
      val ln = l.outNulls; val rn = r.outNulls
      base = 0
      if (ln == null && rn == null) {
        var i = 0
        while (i < n) { outB(i) = la(lb + i) || ra(rb + i); i += 1 }
        outNulls = null
      } else {
        var any = false
        var i = 0
        while (i < n) {
          val lNull = ln != null && ln(i)
          val rNull = rn != null && rn(i)
          val lv = !lNull && la(lb + i)
          val rv = !rNull && ra(rb + i)
          outB(i) = lv || rv
          nullBuf(i) = !(outB(i) || (!lNull && !rNull))
          any ||= nullBuf(i)
          i += 1
        }
        outNulls = if (any) nullBuf else null
      }
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
      outNulls = e.outNulls
    }
  }

  private final class InLNode(e: CE, set: Set[Long]) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      val a = e.blockL(n); val ab = e.lBase
      base = 0
      var i = 0
      while (i < n) { outB(i) = set.contains(a(ab + i)); i += 1 }
      outNulls = e.outNulls
    }
  }

  private final class InDNode(e: CE, set: Set[Double]) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      val a = e.blockD(n); val ab = e.dBase
      base = 0
      var i = 0
      while (i < n) { outB(i) = set.contains(a(ab + i)); i += 1 }
      outNulls = e.outNulls
    }
  }

  private final class IsNullNode(e: CE, negated: Boolean) extends CE(DType.Bool) {
    outB = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      e.ensure(lo, hi)
      val n = hi - lo
      val en = e.outNulls
      base = 0
      var i = 0
      while (i < n) { val nu = en != null && en(i); outB(i) = if (negated) !nu else nu; i += 1 }
      outNulls = null
    }
  }

  private final class CaseNode(branches: Array[(CE, CE)], elseC: CE, dt: DType) extends CE(dt) {
    private val asD = dt == DType.F64
    outD = if (asD) new Array[Double](Block) else null
    outL = if (asD) null else new Array[Long](Block)
    private val nullBuf = new Array[Boolean](Block)
    protected def compute(lo: Int, hi: Int): Unit = {
      val n = hi - lo
      branches.foreach { case (c, v) => c.ensure(lo, hi); v.ensure(lo, hi) }
      elseC.ensure(lo, hi)
      // Hoist per-branch block buffers and bases out of the row loop.
      val bD = if (asD) branches.map { case (_, v) => (v.blockD(n), v.dBase) } else null
      val bL = if (asD) null else branches.map { case (_, v) => (v.blockL(n), v.lBase) }
      val eD = if (asD) { val a = elseC.blockD(n); (a, elseC.dBase) } else null
      val eL = if (asD) null else { val a = elseC.blockL(n); (a, elseC.lBase) }
      base = 0
      var any = false
      var i = 0
      while (i < n) {
        var k = 0
        var done = false
        while (!done && k < branches.length) {
          val (c, v) = branches(k)
          val condTrue = (c.outNulls == null || !c.outNulls(i)) && c.outB(c.base + i)
          if (condTrue) {
            val nu = v.outNulls != null && v.outNulls(i)
            if (asD) { val (a, ab) = bD(k); outD(i) = if (nu) 0.0 else a(ab + i) }
            else { val (a, ab) = bL(k); outL(i) = if (nu) 0L else a(ab + i) }
            nullBuf(i) = nu
            done = true
          }
          k += 1
        }
        if (!done) {
          val nu = elseC.outNulls != null && elseC.outNulls(i)
          if (asD) { val (a, ab) = eD; outD(i) = if (nu) 0.0 else a(ab + i) }
          else { val (a, ab) = eL; outL(i) = if (nu) 0L else a(ab + i) }
          nullBuf(i) = nu
        }
        any ||= nullBuf(i)
        i += 1
      }
      outNulls = if (any) nullBuf else null
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
      outNulls = e.outNulls
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
      outNulls = e.outNulls
    }
  }

  // ---------------- compilation ----------------

  /** Compile an expression against a bound input table. String-valued
    * subtrees are pre-lowered via the interpreted evaluator (vectorized
    * string kernels) and enter as leaves.
    */
  def compile(e: Expr, table: TensorTable, env: ExecEnv): CE = e match {
    case ColRef(n, _) => leafOf(table.column(n))

    case Lit(v, dt) => dt match {
      case DType.F64              => new ConstD(v.asInstanceOf[Double])
      case DType.Bool             => new ConstB(v.asInstanceOf[Boolean])
      case DType.Str              => throw new IllegalStateException("string literal must be folded by parent")
      case DType.I64 | DType.Date => new ConstL(v.asInstanceOf[Long], dt)
    }
    case NullLit(dt) => new ConstNull(dt)
    case ScalarSub(i, dt) =>
      env.subquery(i) match {
        case null                 => new ConstNull(dt)
        case d: java.lang.Double  => new ConstD(d)
        case l: java.lang.Long    => new ConstL(l, dt)
        case b: java.lang.Boolean => new ConstB(b)
        case o => throw new IllegalArgumentException(s"subquery scalar $o: $dt")
      }
    case AggRef(_, _) => throw new IllegalStateException("AggRef outside aggregation")

    case a @ Arith(kind, l, r) => new ArithNode(kind.op, compile(l, table, env), compile(r, table, env), a.dtype)

    case Neg(x) =>
      val minusOne = if (x.dtype == DType.F64) new ConstD(-1.0) else new ConstL(-1L, DType.I64)
      new ArithNode(TensorOps.Mul, compile(x, table, env), minusOne, x.dtype)

    case c: Cmp if c.operandType == DType.Str => vectorFallback(e, table, env)
    case c @ Cmp(kind, l, r) =>
      new CmpNode(kind.op, compile(l, table, env), compile(r, table, env), c.operandType == DType.F64)

    case And(l, r) => new AndNode(compile(l, table, env), compile(r, table, env))
    case Or(l, r)  => new OrNode(compile(l, table, env), compile(r, table, env))
    case Not(x)    => new NotNode(compile(x, table, env))

    case InValues(x, _) if x.dtype == DType.Str => vectorFallback(e, table, env)
    case InValues(x, values) =>
      val c = compile(x, table, env)
      if (x.dtype == DType.F64) new InDNode(c, values.map {
        case d: java.lang.Double  => d.doubleValue
        case l: java.lang.Long    => l.toDouble
        case i: java.lang.Integer => i.toDouble
        case o => throw new IllegalArgumentException(s"IN value $o")
      }.toSet)
      else new InLNode(c, values.map {
        case l: java.lang.Long    => l.longValue
        case i: java.lang.Integer => i.toLong
        case o => throw new IllegalArgumentException(s"IN value $o")
      }.toSet)

    case IsNull(x)    => new IsNullNode(compile(x, table, env), negated = false)
    case IsNotNull(x) => new IsNullNode(compile(x, table, env), negated = true)

    case cw @ CaseWhen(branches, elseValue) =>
      if (cw.dtype == DType.Str) vectorFallback(e, table, env)
      else {
        val bs = branches.map { case (c, v) => (compile(c, table, env), compile(v, table, env)) }.toArray
        val el = elseValue.map(compile(_, table, env)).getOrElse(new ConstNull(cw.dtype))
        new CaseNode(bs, el, cw.dtype)
      }

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

  private def leafOf(c: Column): CE = {
    val valid = c.validity.orNull
    c.dtype match {
      case DType.F64              => new LeafD(c.f64.data, valid)
      case DType.Bool             => new LeafB(c.bool.data, valid)
      case DType.I64 | DType.Date => new LeafL(c.i64.data, valid, c.dtype)
      case DType.Str              => throw new IllegalStateException("string leaf must be consumed by a string kernel")
    }
  }

  /** Pre-lower a string-touching subtree via the vectorized interpreter. */
  private def vectorFallback(e: Expr, table: TensorTable, env: ExecEnv): CE =
    leafOf(ExprEval.evalToColumn(e, table, env))

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
    var valid: Array[Boolean] = null
    def markNulls(blockNulls: Array[Boolean], lo: Int, m: Int): Unit = {
      if (blockNulls == null) return
      if (valid == null) valid = Array.fill(n)(true)
      var i = 0
      while (i < m) { if (blockNulls(i)) valid(lo + i) = false; i += 1 }
    }
    val col = e.dtype match {
      case DType.F64 =>
        val out = new Array[Double](n)
        var lo = 0
        while (lo < n) {
          val hi = math.min(n, lo + Block)
          ce.ensure(lo, hi)
          val a = ce.blockD(hi - lo)
          System.arraycopy(a, ce.dBase, out, lo, hi - lo)
          markNulls(ce.outNulls, lo, hi - lo)
          lo = hi
        }
        Column(name, DType.F64, F64Tensor(out), Option(valid))
      case DType.Bool =>
        val out = new Array[Boolean](n)
        var lo = 0
        while (lo < n) {
          val hi = math.min(n, lo + Block)
          ce.ensure(lo, hi)
          System.arraycopy(ce.outB, ce.base, out, lo, hi - lo)
          markNulls(ce.outNulls, lo, hi - lo)
          lo = hi
        }
        Column(name, DType.Bool, BoolTensor(out), Option(valid))
      case dt =>
        val out = new Array[Long](n)
        var lo = 0
        while (lo < n) {
          val hi = math.min(n, lo + Block)
          ce.ensure(lo, hi)
          val a = ce.blockL(hi - lo)
          System.arraycopy(a, ce.lBase, out, lo, hi - lo)
          markNulls(ce.outNulls, lo, hi - lo)
          lo = hi
        }
        Column(name, dt, I64Tensor(out), Option(valid))
    }
    Profile.rec("fusedExpr", OpClass.ElementWise, n, n.toLong * 8L * (countNodes(e) + 1))
    col
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
      val nulls = ce.outNulls
      val a = ce.outB; val ab = ce.base
      var i = 0
      val m = hi - lo
      while (i < m) { out(lo + i) = a(ab + i) && (nulls == null || !nulls(i)); i += 1 }
      lo = hi
    }
    Profile.rec("fusedFilter", OpClass.ElementWise, n, n.toLong * (8L * countNodes(e) + 1))
    BoolTensor(out)
  }

  private def countNodes(e: Expr): Int = 1 + e.children.map(countNodes).sum
}
