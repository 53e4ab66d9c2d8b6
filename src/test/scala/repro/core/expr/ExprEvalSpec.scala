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
}
