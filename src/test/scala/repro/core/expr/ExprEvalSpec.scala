package repro.core.expr

import org.scalatest.funsuite.AnyFunSuite
import repro.core.data.{Column, DType, TensorTable}
import repro.tensor._
import Expr._

/** Direct tests of both expression evaluators (interpreted and fused),
  * focusing on null propagation and type promotion — the corners the
  * end-to-end suites reach only indirectly.
  */
class ExprEvalSpec extends AnyFunSuite {

  private val table = TensorTable(Vector(
    Column("a", DType.F64, F64Tensor(Array(1.0, 2.0, 3.0, 4.0))),
    Column("b", DType.I64, I64Tensor(Array(10L, 20L, 30L, 40L))),
    Column("n", DType.F64, F64Tensor(Array(1.0, 0.0, 3.0, 0.0)),
      Some(Array(true, false, true, false))),
    Column("s", DType.Str, StringTensor.fromStrings(Array("x", "y", "x", "z"))),
    Column("sn", DType.Str, StringTensor.fromStrings(Array("x", "", "", "z")),
      Some(Array(true, false, false, true))),
  ))

  private def both(e: Expr, t: TensorTable = table): (Column, Column) =
    (ExprEval.evalToColumn(e, t, ExecEnv.empty),
     ExprCompiler.evalToColumn(e, t, ExecEnv.empty))

  private def bothMask(e: Expr): (Seq[Boolean], Seq[Boolean]) =
    (ExprEval.evalMask(e, table, ExecEnv.empty).data.toSeq,
     ExprCompiler.evalMask(e, table, ExecEnv.empty).data.toSeq)

  test("arithmetic promotes i64 × f64 to f64 in both modes") {
    val e = Arith(MulK, ColRef("a", DType.F64), ColRef("b", DType.I64))
    val (i, c) = both(e)
    assert(i.dtype == DType.F64 && c.dtype == DType.F64)
    assert(i.f64.data.toSeq == Seq(10.0, 40.0, 90.0, 160.0))
    assert(c.f64.data.toSeq == i.f64.data.toSeq)
  }

  test("division always yields f64") {
    val e = Arith(DivK, ColRef("b", DType.I64), Lit(4L, DType.I64))
    val (i, c) = both(e)
    assert(i.f64.data.toSeq == Seq(2.5, 5.0, 7.5, 10.0))
    assert(c.f64.data.toSeq == i.f64.data.toSeq)
  }

  test("null propagation through arithmetic") {
    val e = Arith(AddK, ColRef("n", DType.F64), Lit(1.0, DType.F64))
    val (i, c) = both(e)
    assert(i.validity.get.toSeq == Seq(true, false, true, false))
    assert(c.validity.get.toSeq == Seq(true, false, true, false))
  }

  test("null comparison is not true (filter drops it)") {
    val e = Cmp(GtK, ColRef("n", DType.F64), Lit(0.5, DType.F64))
    val (i, c) = bothMask(e)
    assert(i == Seq(true, false, true, false))
    assert(c == i)
  }

  test("three-valued OR: null OR true = true") {
    val e = Or(Cmp(GtK, ColRef("n", DType.F64), Lit(100.0, DType.F64)),
               Cmp(GtK, ColRef("a", DType.F64), Lit(0.0, DType.F64)))
    val (i, c) = bothMask(e)
    assert(i == Seq(true, true, true, true))
    assert(c == i)
  }

  test("IsNull / IsNotNull") {
    val (i, c) = bothMask(IsNull(ColRef("n", DType.F64)))
    assert(i == Seq(false, true, false, true))
    assert(c == i)
    val (i2, c2) = bothMask(IsNotNull(ColRef("n", DType.F64)))
    assert(i2 == Seq(true, false, true, false))
    assert(c2 == i2)
    // Over a string column, too.
    val (i3, c3) = bothMask(IsNull(ColRef("sn", DType.Str)))
    assert(i3 == Seq(false, true, true, false))
    assert(c3 == i3)
    val (i4, c4) = bothMask(IsNotNull(ColRef("sn", DType.Str)))
    assert(i4 == Seq(true, false, false, true))
    assert(c4 == i4)
  }

  test("case-when with string condition falls back to vector kernels when fused") {
    val e = CaseWhen(
      Seq((Cmp(EqK, ColRef("s", DType.Str), Lit("x", DType.Str)), ColRef("a", DType.F64))),
      Some(Lit(0.0, DType.F64)))
    val (i, c) = both(e)
    assert(i.f64.data.toSeq == Seq(1.0, 0.0, 3.0, 0.0))
    assert(c.f64.data.toSeq == i.f64.data.toSeq)
  }

  test("case-when else-null yields nulls") {
    val e = CaseWhen(Seq((Cmp(GtK, ColRef("a", DType.F64), Lit(2.5, DType.F64)),
                          ColRef("a", DType.F64))), None)
    val (i, c) = both(e)
    assert(i.validity.get.toSeq == Seq(false, false, true, true))
    assert(c.validity.get.toSeq == i.validity.get.toSeq)
  }

  test("CASE over strings or booleans raises the same error in both backends") {
    val cond = Cmp(GtK, ColRef("a", DType.F64), Lit(2.5, DType.F64))
    for (value <- Seq(ColRef("s", DType.Str), Cmp(LtK, ColRef("b", DType.I64), Lit(30L, DType.I64)))) {
      val e = CaseWhen(Seq(cond -> value), None)
      val msgs = Seq(ExprEval, ExprCompiler).map { b =>
        intercept[IllegalArgumentException](b.evalToColumn(e, table, ExecEnv.empty)).getMessage
      }
      assert(msgs.distinct == Seq(s"requirement failed: CASE over ${value.dtype} unsupported"))
    }
  }

  test("IN over i64 and strings") {
    val (i, c) = bothMask(InValues(ColRef("b", DType.I64), Seq(10L, 40L)))
    assert(i == Seq(true, false, false, true))
    assert(c == i)
    val (i2, c2) = bothMask(InValues(ColRef("s", DType.Str), Seq("y", "z")))
    assert(i2 == Seq(false, true, false, true))
    assert(c2 == i2)
  }

  test("string predicates in both modes") {
    val (i, c) = bothMask(StrPred(ContainsP, ColRef("s", DType.Str), "x"))
    assert(i == Seq(true, false, true, false))
    assert(c == i)
  }

  test("scalar subquery value substitutes as literal") {
    val env = ExecEnv(Vector(java.lang.Double.valueOf(2.5)))
    val e = Cmp(GtK, ColRef("a", DType.F64), ScalarSub(0, DType.F64))
    assert(ExprEval.evalMask(e, table, env).data.toSeq == Seq(false, false, true, true))
    assert(ExprCompiler.evalMask(e, table, env).data.toSeq == Seq(false, false, true, true))
  }

  test("null scalar subquery filters everything") {
    val env = ExecEnv(Vector(null))
    val e = Cmp(GtK, ColRef("a", DType.F64), ScalarSub(0, DType.F64))
    assert(ExprEval.evalMask(e, table, env).data.forall(!_))
    assert(ExprCompiler.evalMask(e, table, env).data.forall(!_))
  }

  test("cast between i64 and f64") {
    val (i, c) = both(CastTo(ColRef("b", DType.I64), DType.F64))
    assert(i.dtype == DType.F64 && i.f64.data.toSeq == Seq(10.0, 20.0, 30.0, 40.0))
    assert(c.f64.data.toSeq == i.f64.data.toSeq)
    // Date → i64 is the epoch day, from a column and from a literal.
    val day = java.time.LocalDate.of(1995, 7, 1).toEpochDay
    val dates = table.withColumn(Column("d", DType.Date, I64Tensor(Array(day, day + 1, day + 2, day + 3))))
    for ((x, expected) <- Seq(ColRef("d", DType.Date) -> Seq(day, day + 1, day + 2, day + 3),
                              Lit(day, DType.Date) -> Seq.fill(4)(day))) {
      val (di, dc) = both(CastTo(x, DType.I64), dates)
      assert(di.dtype == DType.I64 && dc.dtype == DType.I64, x)
      assert(di.i64.data.toSeq == expected && dc.i64.data.toSeq == expected, x)
    }
  }

  test("year extracts from epoch-day dates") {
    val d = java.time.LocalDate.of(1995, 7, 1).toEpochDay
    val tab = TensorTable(Vector(Column("d", DType.Date, I64Tensor(Array(d, d + 400)))))
    val i = ExprEval.evalToColumn(Year(ColRef("d", DType.Date)), tab, ExecEnv.empty)
    val c = ExprCompiler.evalToColumn(Year(ColRef("d", DType.Date)), tab, ExecEnv.empty)
    assert(i.i64.data.toSeq == Seq(1995L, 1996L))
    assert(c.i64.data.toSeq == i.i64.data.toSeq)
  }

  test("interpreted mode materializes more intermediates than fused mode") {
    val e = Arith(MulK, Arith(AddK, ColRef("a", DType.F64), Lit(1.0, DType.F64)),
                  Arith(SubK, ColRef("a", DType.F64), Lit(1.0, DType.F64)))
    val pi = new Profile
    ExecCtx.withProfile(pi) { ExprEval.evalToColumn(e, table, ExecEnv.empty) }
    val pc = new Profile
    ExecCtx.withProfile(pc) { ExprCompiler.evalToColumn(e, table, ExecEnv.empty) }
    assert(pi.totalOps > pc.totalOps, s"${pi.totalOps} vs ${pc.totalOps}")
  }

  // ----------------------------------------------------------------
  // Differential test: both backends against a plain row loop
  // ----------------------------------------------------------------

  /** 40,000 rows (not a multiple of the 4096-row block): I64 and F64 columns
    * with nulls, negatives, zeros and ±0.0.
    */
  private lazy val wide: TensorTable = {
    val n = 40000
    val r = new scala.util.Random(17)
    def nulls() = Some(Array.fill(n)(r.nextInt(10) != 0))
    def longs() = Array.fill(n)(r.nextInt(7) match { case 0 => 0L; case 1 => 24L; case _ => r.nextLong(201) - 100 })
    def doubles() = Array.fill(n)(r.nextInt(8) match {
      case 0 => 0.0; case 1 => -0.0; case 2 => 24.0; case _ => (r.nextDouble() - 0.5) * 200
    })
    TensorTable(Vector(
      Column("i", DType.I64, I64Tensor(longs()), nulls()),
      Column("j", DType.I64, I64Tensor(longs()), nulls()),
      Column("x", DType.F64, F64Tensor(doubles()), nulls()),
      Column("y", DType.F64, F64Tensor(doubles()), None)))
  }

  /** One operand of the row loop, by row: its value as a double and as a long (0/1 for Bool), and its validity. */
  private final class RefOperand(val d: Array[Double], val l: Array[Long], val valid: Array[Boolean])

  private val refOperands = scala.collection.mutable.Map.empty[Expr, RefOperand]

  /** A leaf of `wide`, a literal, or a subexpression evaluated by the row loop. */
  private def refOperand(e: Expr): RefOperand = refOperands.getOrElseUpdate(e, {
    val n = wide.numRows
    val allValid = BoolTensor.fill(n, true).data
    e match {
      case ColRef(name, dt) =>
        val c = wide.column(name)
        val v = c.validity.getOrElse(allValid)
        if (dt == DType.F64) new RefOperand(c.f64.data, new Array[Long](n), v)
        else new RefOperand(Array.tabulate(n)(c.i64.data(_).toDouble), c.i64.data, v)
      case Lit(v: java.lang.Double, _)  => new RefOperand(F64Tensor.fill(n, v).data, new Array[Long](n), allValid)
      case Lit(v: java.lang.Long, _)    => new RefOperand(F64Tensor.fill(n, v.toDouble).data, I64Tensor.fill(n, v).data, allValid)
      case Lit(v: java.lang.Boolean, _) =>
        val b = if (v) 1L else 0L
        new RefOperand(F64Tensor.fill(n, b.toDouble).data, I64Tensor.fill(n, b).data, allValid)
      case NullLit(_) => new RefOperand(new Array[Double](n), new Array[Long](n), new Array[Boolean](n))
      case _ =>
        val (bits, valid) = refColumn(e)
        if (e.dtype == DType.F64) {
          val d = bits.map(java.lang.Double.longBitsToDouble)
          new RefOperand(d, d.map(_.toLong), valid)
        } else new RefOperand(bits.map(_.toDouble), bits, valid)
    }
  })

  /** SQL semantics in a plain row loop: NULL in, NULL out; x / 0 is NULL; an
    * I64 side is widened when the other side is F64; AND/OR are Kleene's;
    * IS [NOT] NULL is never NULL; CASE takes the first branch whose condition
    * is TRUE. Returns per row the raw bits (F64), the long (I64) or 0/1
    * (Bool), 0 on NULL rows, and the validity.
    */
  private def refColumn(e: Expr): (Array[Long], Array[Boolean]) = {
    val n = wide.numRows
    def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)
    def bool(v: Boolean) = if (v) 1L else 0L
    def truth(o: RefOperand, r: Int): Option[Boolean] = if (o.valid(r)) Some(o.l(r) == 1L) else None
    val row: Int => Option[Long] = e match {
      case And(x, y) =>
        val (a, b) = (refOperand(x), refOperand(y))
        r => (truth(a, r), truth(b, r)) match {
          case (Some(false), _) | (_, Some(false)) => Some(0L)
          case (Some(true), Some(true))            => Some(1L)
          case _                                   => None
        }
      case Or(x, y) =>
        val (a, b) = (refOperand(x), refOperand(y))
        r => (truth(a, r), truth(b, r)) match {
          case (Some(true), _) | (_, Some(true)) => Some(1L)
          case (Some(false), Some(false))        => Some(0L)
          case _                                 => None
        }
      case IsNull(x)    => val a = refOperand(x); r => Some(bool(!a.valid(r)))
      case IsNotNull(x) => val a = refOperand(x); r => Some(bool(a.valid(r)))
      case cw @ CaseWhen(branches, elseValue) =>
        val conds = branches.map(b => refOperand(b._1))
        val vals  = branches.map(b => refOperand(b._2)) :+ refOperand(elseValue.getOrElse(NullLit(cw.dtype)))
        r => {
          val k = conds.indexWhere(c => truth(c, r).contains(true))
          val v = vals(if (k < 0) conds.length else k)
          if (!v.valid(r)) None else Some(if (cw.dtype == DType.F64) bits(v.d(r)) else v.l(r))
        }
      case _ =>
        val a = refOperand(e.children.head); val b = refOperand(e.children.last)
        val value: Int => Long = e match {
          case Neg(x) => if (x.dtype == DType.F64) r => bits(-a.d(r)) else r => -a.l(r)
          case Not(_) => r => 1L - a.l(r)
          case InValues(x, vs) if x.dtype == DType.F64 =>
            val set = vs.map { case d: java.lang.Double => d.doubleValue; case l: java.lang.Long => l.toDouble }
            r => bool(set.exists(_ == a.d(r)))
          case InValues(_, vs) => r => bool(vs.contains(a.l(r)))
          case ar @ Arith(kind, _, _) if ar.dtype == DType.F64 => kind match {
            case AddK => r => bits(a.d(r) + b.d(r)); case SubK => r => bits(a.d(r) - b.d(r))
            case MulK => r => bits(a.d(r) * b.d(r)); case DivK => r => bits(a.d(r) / b.d(r))
          }
          case Arith(kind, _, _) => kind match {
            case AddK => r => a.l(r) + b.l(r); case SubK => r => a.l(r) - b.l(r)
            case MulK => r => a.l(r) * b.l(r); case DivK => fail("I64 division")
          }
          case c @ Cmp(kind, _, _) if c.operandType == DType.F64 => kind match {
            case EqK => r => bool(a.d(r) == b.d(r)); case NeK => r => bool(a.d(r) != b.d(r))
            case LtK => r => bool(a.d(r) < b.d(r));  case LeK => r => bool(a.d(r) <= b.d(r))
            case GtK => r => bool(a.d(r) > b.d(r));  case GeK => r => bool(a.d(r) >= b.d(r))
          }
          case Cmp(kind, _, _) => kind match {
            case EqK => r => bool(a.l(r) == b.l(r)); case NeK => r => bool(a.l(r) != b.l(r))
            case LtK => r => bool(a.l(r) < b.l(r));  case LeK => r => bool(a.l(r) <= b.l(r))
            case GtK => r => bool(a.l(r) > b.l(r));  case GeK => r => bool(a.l(r) >= b.l(r))
          }
          case other => fail(other.toString)
        }
        val isDiv = e match { case Arith(DivK, _, _) => true; case _ => false }
        r => if (a.valid(r) && b.valid(r) && !(isDiv && b.d(r) == 0.0)) Some(value(r)) else None
    }
    val (out, valid) = (new Array[Long](n), new Array[Boolean](n))
    var r = 0
    while (r < n) {
      val v = row(r)
      valid(r) = v.isDefined
      out(r) = v.getOrElse(0L)
      r += 1
    }
    (out, valid)
  }

  /** A column as per-row raw bits (F64), longs (I64) or 0/1 (Bool), with 0 on NULL rows. */
  private def bitsOf(c: Column): Array[Long] = {
    val n = c.length
    val out = new Array[Long](n)
    var i = 0
    c.tensor match {
      case F64Tensor(d)  => while (i < n) { out(i) = java.lang.Double.doubleToRawLongBits(d(i)); i += 1 }
      case BoolTensor(d) => while (i < n) { out(i) = if (d(i)) 1L else 0L; i += 1 }
      case I64Tensor(d)  => System.arraycopy(d, 0, out, 0, n)
      case other         => fail(other.toString)
    }
    for (v <- c.validity) { i = 0; while (i < n) { if (!v(i)) out(i) = 0L; i += 1 } }
    out
  }

  /** Both backends, on each device, equal the row loop: validity on every row, raw bits on valid rows. */
  private def assertMatchesRowLoop(e: Expr, devices: Seq[CpuDevice]): Unit = {
    val (ref, refValid) = refColumn(e)
    for (d <- devices; backend <- Seq(ExprEval, ExprCompiler)) {
      val col = ExecCtx.withDevice(d)(backend.evalToColumn(e, wide, ExecEnv.empty))
      assert(col.dtype == e.dtype, s"$backend $e")
      val got = bitsOf(col)
      val valid = col.validity.getOrElse(BoolTensor.fill(col.length, true).data)
      if (!java.util.Arrays.equals(valid, refValid) || !java.util.Arrays.equals(got, ref)) {
        val row = (0 until wide.numRows).find(r => valid(r) != refValid(r) || got(r) != ref(r)).get
        fail(s"$backend on ${d.threads} thread(s), $e, row $row: got ${valid(row)}/${got(row)}, " +
          s"expected ${refValid(row)}/${ref(row)}")
      }
    }
  }

  private val arithKinds = Seq(AddK, SubK, MulK, DivK)
  private val cmpKinds   = Seq(EqK, NeK, LtK, LeK, GtK, GeK)

  /** (left, right) operand pairs: {vector, scalar}² × {I64, F64, mixed}. */
  private val operandPairs: Seq[(Expr, Expr)] = {
    val i = ColRef("i", DType.I64); val j = ColRef("j", DType.I64)
    val x = ColRef("x", DType.F64); val y = ColRef("y", DType.F64)
    val longs   = Seq(Lit(24L, DType.I64), Lit(0L, DType.I64))
    val doubles = Seq(Lit(24.5, DType.F64), Lit(-0.0, DType.F64))
    def shapes(lv: Expr, rv: Expr, ls: Seq[Expr], rs: Seq[Expr]): Seq[(Expr, Expr)] =
      Seq(lv -> rv) ++ rs.map(lv -> _) ++ ls.map(_ -> rv) ++ ls.zip(rs)
    shapes(i, j, longs, longs) ++ shapes(x, y, doubles, doubles) ++
      shapes(i, x, longs, doubles) ++ shapes(x, i, doubles, longs)
  }

  test("both backends equal a row loop bit for bit on every arithmetic and comparison shape") {
    val dev = new CpuDevice(3)
    try {
      val devices = Seq(CpuDevice.single, dev)
      for ((l, r) <- operandPairs) {
        arithKinds.foreach(k => assertMatchesRowLoop(Arith(k, l, r), devices))
        cmpKinds.foreach(k => assertMatchesRowLoop(Cmp(k, l, r), devices))
      }
      Seq(ColRef("i", DType.I64), ColRef("x", DType.F64), Lit(-0.0, DType.F64), Lit(5L, DType.I64))
        .foreach(x => assertMatchesRowLoop(Neg(x), devices))
    } finally dev.close()
  }

  test("both backends equal a row loop on Kleene AND/OR, NOT, null tests, IN and numeric CASE") {
    val dev = new CpuDevice(3)
    try {
      val devices = Seq(CpuDevice.single, dev)
      val i = ColRef("i", DType.I64); val j = ColRef("j", DType.I64)
      val x = ColRef("x", DType.F64); val y = ColRef("y", DType.F64)
      // Nullable (over i, x), null-free (over y), and scalar TRUE/FALSE/NULL operands.
      val p = Cmp(GtK, i, Lit(0L, DType.I64))
      val q = Cmp(LtK, x, Lit(24.5, DType.F64))
      val r = Cmp(GeK, y, Lit(0.0, DType.F64))
      val bools = Seq(p, q, r, Lit(true, DType.Bool), Lit(false, DType.Bool), NullLit(DType.Bool))
      for (a <- bools; b <- bools) {
        assertMatchesRowLoop(And(a, b), devices)
        assertMatchesRowLoop(Or(a, b), devices)
      }
      assertMatchesRowLoop(And(Or(p, Not(q)), Or(r, NullLit(DType.Bool))), devices)
      Seq(p, q, r, NullLit(DType.Bool)).foreach(b => assertMatchesRowLoop(Not(b), devices))
      for (e <- Seq(i, x, y, q, Arith(DivK, y, i), NullLit(DType.F64))) {
        assertMatchesRowLoop(IsNull(e), devices)
        assertMatchesRowLoop(IsNotNull(e), devices)
      }
      assertMatchesRowLoop(InValues(i, Seq(0L, 24L, -7L)), devices)
      assertMatchesRowLoop(InValues(j, Seq(24L)), devices)
      assertMatchesRowLoop(InValues(x, Seq(0.0, 24.0, 1.5)), devices)
      assertMatchesRowLoop(InValues(y, Seq(-0.0, 24L)), devices)
      // Numeric CASE with a NULL (absent) ELSE, an I64 branch widened into an F64 result, and an I64 result.
      assertMatchesRowLoop(CaseWhen(Seq(p -> x, q -> j), None), devices)
      assertMatchesRowLoop(CaseWhen(Seq(Or(p, q) -> y), Some(NullLit(DType.F64))), devices)
      assertMatchesRowLoop(CaseWhen(Seq(r -> i, And(p, q) -> Lit(5L, DType.I64)), Some(j)), devices)
    } finally dev.close()
  }

  test("probe cases: widened comparisons, -(0.0), and division by zero, in both backends") {
    val t = TensorTable(Vector(
      Column("k", DType.I64, I64Tensor(Array(24L, 5L, 7L))),
      Column("v", DType.F64, F64Tensor(Array(0.0, 3.0, -0.0)))))
    def rows(e: Expr): Seq[Seq[Any]] = Seq(ExprEval, ExprCompiler).map { b =>
      val c = b.evalToColumn(e, t, ExecEnv.empty)
      (0 until c.length).map { r =>
        if (!c.isValid(r)) null
        else c.dtype match {
          case DType.F64  => java.lang.Double.doubleToRawLongBits(c.f64.data(r))
          case DType.Bool => c.bool.data(r)
          case _          => c.i64.data(r)
        }
      }
    }
    val bits = (d: Double) => java.lang.Double.doubleToRawLongBits(d)
    // An I64 column against an F64 constant compares in F64: 24 < 24.5.
    assert(rows(Cmp(LtK, ColRef("k", DType.I64), Lit(24.5, DType.F64))).distinct == Seq(Seq(true, true, true)))
    // A scalar–scalar comparison uses both sides' types: 1 = 1.5 is false.
    assert(rows(Cmp(EqK, Lit(1L, DType.I64), Lit(1.5, DType.F64))).distinct == Seq(Seq(false, false, false)))
    // -(0.0) is -0.0 and -(-0.0) is 0.0.
    assert(rows(Neg(ColRef("v", DType.F64))).distinct == Seq(Seq(bits(-0.0), bits(-3.0), bits(0.0))))
    // x / 0 is NULL, for a zero column value, a -0.0 and a zero constant.
    assert(rows(Arith(DivK, Lit(1.0, DType.F64), ColRef("v", DType.F64))).distinct ==
      Seq(Seq(null, bits(1.0 / 3.0), null)))
    assert(rows(Arith(DivK, ColRef("k", DType.I64), Arith(SubK, ColRef("k", DType.I64), Lit(5L, DType.I64)))).distinct ==
      Seq(Seq(bits(24.0 / 19), null, bits(3.5))))
    assert(rows(Arith(DivK, ColRef("v", DType.F64), Lit(0L, DType.I64))).distinct == Seq(Seq(null, null, null)))
  }
}
