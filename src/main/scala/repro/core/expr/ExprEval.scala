package repro.core.expr

import repro.core.data.{Column, DType, TensorTable}
import repro.tensor._
import Expr._

/** Runtime environment for expression evaluation: resolved scalar-subquery
  * values (by index). Populated by the Execution Layer before the main plan
  * runs (§4.2.5).
  */
final case class ExecEnv(subqueryValues: IndexedSeq[Any]) {
  def subquery(i: Int): Any = subqueryValues(i)
}

object ExecEnv { val empty: ExecEnv = ExecEnv(Vector.empty) }

/** Interpreted (eager) expression evaluation — one tensor op and one
  * intermediate tensor per expression node, like vanilla PyTorch (§2.1).
  */
object ExprEval extends ExprBackend {

  /** Evaluation value: a column vector or a scalar (literal / subquery result). */
  sealed trait EvalVal { def dtype: DType }
  final case class VecVal(col: Column) extends EvalVal { def dtype: DType = col.dtype }
  final case class ScalarVal(value: Any, dtype: DType) extends EvalVal { def isNull: Boolean = value == null }

  def evalToColumn(e: Expr, table: TensorTable, env: ExecEnv, name: String): Column =
    asVec(eval(e, table, env), table.numRows).renamed(name)

  def evalMask(e: Expr, table: TensorTable, env: ExecEnv): BoolTensor =
    eval(e, table, env) match {
      case VecVal(c) =>
        c.validity match {
          case None => c.bool
          case Some(valid) =>
            val out = new Array[Boolean](c.length)
            ExecCtx.current.device.parallelRanges(c.length) { (s, e) =>
              TensorOps.and(c.bool.data, s, valid, s, out, s, e - s)
            }
            BoolTensor(out)
        }
      case ScalarVal(v, _) => BoolTensor.fill(table.numRows, v == true)
    }

  // ----------------------------------------------------------------

  def eval(e: Expr, table: TensorTable, env: ExecEnv): EvalVal = e match {
    case ColRef(n, _)  => VecVal(table.column(n))
    case Lit(v, dt)    => ScalarVal(v, dt)
    case NullLit(dt)   => ScalarVal(null, dt)
    case ScalarSub(i, dt) => ScalarVal(env.subquery(i), dt)

    case a @ Arith(kind, l, r) => evalArith(kind, a.dtype, eval(l, table, env), eval(r, table, env), table.numRows)
    case Neg(x) =>
      val minusOne = if (x.dtype == DType.F64) ScalarVal(-1.0, DType.F64) else ScalarVal(-1L, DType.I64)
      evalArith(MulK, x.dtype, eval(x, table, env), minusOne, table.numRows)

    case c @ Cmp(_, l, r) => evalCmp(c, eval(l, table, env), eval(r, table, env), table.numRows)

    case And(l, r) => evalBool2(eval(l, table, env), eval(r, table, env), table.numRows, isOr = false)
    case Or(l, r)  => evalBool2(eval(l, table, env), eval(r, table, env), table.numRows, isOr = true)
    case Not(x) =>
      eval(x, table, env) match {
        case VecVal(c)        => VecVal(Column("", DType.Bool, TensorOps.logicalNot(c.bool), c.validity))
        case ScalarVal(v, dt) => ScalarVal(if (v == null) null else !v.asInstanceOf[Boolean], dt)
      }

    case InValues(x, values) =>
      eval(x, table, env) match {
        case VecVal(c) => VecVal(evalIn(c, values))
        case ScalarVal(v, _) => ScalarVal(v != null && values.contains(v), DType.Bool)
      }

    case IsNull(x)    => nullTest(eval(x, table, env), isNotNull = false)
    case IsNotNull(x) => nullTest(eval(x, table, env), isNotNull = true)

    case cw @ CaseWhen(branches, elseValue) => evalCase(cw, branches, elseValue, table, env)

    case CastTo(x, dt) => evalCast(eval(x, table, env), dt, table.numRows)

    case StrPred(kind, x, pattern) =>
      val c = asVec(eval(x, table, env), table.numRows)
      val mask = kind match {
        case LikeP       => StringTensor.like(c.str, pattern)
        case StartsWithP => StringTensor.startsWith(c.str, pattern)
        case EndsWithP   => StringTensor.endsWith(c.str, pattern)
        case ContainsP   => StringTensor.contains(c.str, pattern)
      }
      VecVal(Column("", DType.Bool, mask, c.validity))

    case Substr(x, s, l) =>
      val c = asVec(eval(x, table, env), table.numRows)
      VecVal(Column("", DType.Str, StringTensor.substring(c.str, s, l), c.validity))

    case Year(x) =>
      val c = asVec(eval(x, table, env), table.numRows)
      val out = new Array[Long](c.length)
      ExecCtx.current.device.parallelRanges(c.length) { (s, e) => years(c.i64.data, s, out, s, e - s) }
      Profile.rec("year", OpClass.ElementWise, c.length, c.length * 16L)
      VecVal(Column("", DType.I64, I64Tensor(out), c.validity))
  }

  /** `out(oOff + i)` = the calendar year of epoch day `days(dOff + i)`, for `i < n`. */
  private[expr] def years(days: Array[Long], dOff: Int, out: Array[Long], oOff: Int, n: Int): Unit = {
    var i = 0
    while (i < n) { out(oOff + i) = java.time.LocalDate.ofEpochDay(days(dOff + i)).getYear.toLong; i += 1 }
  }

  // ----------------------------------------------------------------
  // Helpers
  // ----------------------------------------------------------------

  private def asVec(v: EvalVal, n: Int): Column = v match {
    case VecVal(c) => c
    case ScalarVal(x, dt) =>
      if (x == null) {
        val t: Tensor = dt match {
          case DType.F64  => F64Tensor.fill(n, 0.0)
          case DType.Str  => StringTensor.fromStrings(Array.fill(n)(""))
          case DType.Bool => BoolTensor.fill(n, false)
          case _          => I64Tensor.fill(n, 0L)
        }
        Column("", dt, t, Some(new Array[Boolean](n)))
      } else {
        val t: Tensor = dt match {
          case DType.I64 | DType.Date => I64Tensor.fill(n, x.asInstanceOf[Long])
          case DType.F64              => F64Tensor.fill(n, x.asInstanceOf[Double])
          case DType.Bool             => BoolTensor.fill(n, x.asInstanceOf[Boolean])
          case DType.Str              => StringTensor.fromStrings(Array.fill(n)(x.asInstanceOf[String]))
        }
        Column("", dt, t, None)
      }
  }

  private[expr] def numAsDouble(v: Any): Double = v match {
    case d: java.lang.Double => d
    case l: java.lang.Long   => l.toDouble
    case i: java.lang.Integer => i.toDouble
    case o => throw new IllegalArgumentException(s"not numeric: $o")
  }

  private[expr] def numAsLong(v: Any): Long = v match {
    case l: java.lang.Long    => l
    case i: java.lang.Integer => i.toLong
    case d: java.lang.Double  => d.toLong
    case o => throw new IllegalArgumentException(s"not numeric: $o")
  }

  private def isF64(dt: DType): Boolean = dt == DType.F64

  private def validityOf(v: EvalVal): Option[Array[Boolean]] = v match {
    case VecVal(c) => c.validity
    case _         => None
  }

  /** A numeric operand as F64 (an I64 side is widened); a scalar is a one-element tensor. */
  private def f64Of(v: EvalVal): F64Tensor = v match {
    case VecVal(c)       => if (isF64(c.dtype)) c.f64 else TensorOps.toF64(c.i64)
    case ScalarVal(x, _) => F64Tensor(Array(numAsDouble(x)))
  }

  private def i64Of(v: EvalVal): I64Tensor = v match {
    case VecVal(c)       => c.i64
    case ScalarVal(x, _) => I64Tensor(Array(numAsLong(x)))
  }

  /** NULL of type `dt`, a scalar if both operands are scalars. */
  private def nullOf(dt: DType, lv: EvalVal, rv: EvalVal, n: Int): EvalVal = (lv, rv) match {
    case (ScalarVal(_, _), ScalarVal(_, _)) => ScalarVal(null, dt)
    case _                                  => VecVal(asVec(ScalarVal(null, dt), n))
  }

  /** A kernel's output: a scalar if both operands were scalars, else a column
    * valid where both operands are valid and `valid` (if any) holds.
    */
  private def result(dt: DType, t: Tensor, lv: EvalVal, rv: EvalVal, valid: Option[BoolTensor]): EvalVal =
    (lv, rv) match {
      case (ScalarVal(_, _), ScalarVal(_, _)) =>
        ScalarVal(t match {
          case F64Tensor(d)  => d(0)
          case I64Tensor(d)  => d(0)
          case BoolTensor(d) => d(0)
          case other         => throw new IllegalStateException(s"scalar result $other")
        }, dt)
      case _ =>
        val validity = Column.validWhereBoth(Column.validWhereBoth(validityOf(lv), validityOf(rv)), valid.map(_.data))
        VecVal(Column("", dt, t, validity))
    }

  private def isNullScalar(v: EvalVal): Boolean = v match {
    case ScalarVal(null, _) => true
    case _                  => false
  }

  // ----------------------------------------------------------------
  // Arithmetic and comparison: one TensorOps kernel per node
  // ----------------------------------------------------------------

  private val ZeroF64 = F64Tensor(Array(0.0))

  private def evalArith(kind: ArithKind, dt: DType, lv: EvalVal, rv: EvalVal, n: Int): EvalVal = rv match {
    case _ if isNullScalar(lv) || isNullScalar(rv) => nullOf(dt, lv, rv, n)
    // x / 0 is NULL (DuckDB; Spark's try_divide), not ±Infinity or NaN.
    case ScalarVal(z, _) if kind == DivK && numAsDouble(z) == 0.0 => nullOf(dt, lv, rv, n)
    case _ if dt == DType.F64 =>
      val b = f64Of(rv)
      val out = TensorOps.arith(kind.op, f64Of(lv), b)
      val nonZero = rv match {
        case VecVal(_) if kind == DivK => Some(TensorOps.cmp(TensorOps.Ne, b, ZeroF64))
        case _                         => None
      }
      result(dt, out, lv, rv, nonZero)
    case _ => result(dt, TensorOps.arith(kind.op, i64Of(lv), i64Of(rv)), lv, rv, None)
  }

  private def evalCmp(c: Cmp, lv: EvalVal, rv: EvalVal, n: Int): EvalVal =
    if (isNullScalar(lv) || isNullScalar(rv)) nullOf(DType.Bool, lv, rv, n)
    else {
      val mask = c.operandType match {
        case DType.Str => strCmp(c.kind, lv, rv)
        case DType.F64 => TensorOps.cmp(c.kind.op, f64Of(lv), f64Of(rv))
        case _         => TensorOps.cmp(c.kind.op, i64Of(lv), i64Of(rv))
      }
      result(DType.Bool, mask, lv, rv, None)
    }

  private def strOf(v: EvalVal): StringTensor = v match {
    case VecVal(c)       => c.str
    case ScalarVal(s, _) => StringTensor.fromStrings(Array(s.asInstanceOf[String]))
  }

  private def strCmp(kind: CmpKind, lv: EvalVal, rv: EvalVal): BoolTensor = (lv, rv) match {
    case (VecVal(a), VecVal(b)) =>
      kind match {
        case EqK => StringTensor.eqCols(a.str, b.str)
        case NeK => TensorOps.logicalNot(StringTensor.eqCols(a.str, b.str))
        case _   => throw new IllegalArgumentException("string ordering between columns unsupported")
      }
    case (_, ScalarVal(s: String, _)) => strCmpConst(kind, strOf(lv), s)
    // compare(s, x) = -compare(x, s): flip the ordering when the constant is on the left.
    case (ScalarVal(s: String, _), _) =>
      strCmpConst(kind match { case LtK => GtK; case LeK => GeK; case GtK => LtK; case GeK => LeK; case k => k },
        strOf(rv), s)
    case other => throw new IllegalArgumentException(s"string comparison over $other")
  }

  private def strCmpConst(kind: CmpKind, t: StringTensor, s: String): BoolTensor = kind match {
    case EqK => StringTensor.eqConst(t, s)
    case NeK => TensorOps.logicalNot(StringTensor.eqConst(t, s))
    case LtK => StringTensor.cmpConst(t, s, _ < _)
    case LeK => StringTensor.cmpConst(t, s, _ <= _)
    case GtK => StringTensor.cmpConst(t, s, _ > _)
    case GeK => StringTensor.cmpConst(t, s, _ >= _)
  }

  // ----------------------------------------------------------------
  // Boolean connectives / IN / CASE / CAST
  // ----------------------------------------------------------------

  /** SQL three-valued AND/OR (TensorOps.kleene); two scalars give a scalar. */
  private def evalBool2(lv: EvalVal, rv: EvalVal, n: Int, isOr: Boolean): EvalVal =
    (lv, rv) match {
      case (ScalarVal(_, _), ScalarVal(_, _)) =>
        val c = kleene(isOr, asVec(lv, 1), asVec(rv, 1))
        ScalarVal(if (c.isValid(0)) c.bool.data(0) else null, DType.Bool)
      case _ =>
        val a = asVec(lv, n); val b = asVec(rv, n)
        if (a.validity.isEmpty && b.validity.isEmpty) {
          val t = if (isOr) TensorOps.logicalOr(a.bool, b.bool)
                  else TensorOps.logicalAnd(a.bool, b.bool)
          VecVal(Column("", DType.Bool, t, None))
        } else {
          Profile.rec("logical3v", OpClass.ElementWise, n, n * 5L)
          VecVal(kleene(isOr, a, b))
        }
    }

  /** Kleene AND/OR of two equally long boolean columns, chunk-parallel. */
  private def kleene(isOr: Boolean, a: Column, b: Column): Column = {
    val av = a.validity.orNull; val bv = b.validity.orNull
    val out = new Array[Boolean](a.length)
    val valid = if (av == null && bv == null) null else new Array[Boolean](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      TensorOps.kleene(isOr, a.bool.data, s, av, s, b.bool.data, s, bv, s, out, valid, s, e - s)
    }
    Column("", DType.Bool, BoolTensor(out), Option(valid))
  }

  /** IS NULL, or IS NOT NULL if `isNotNull`: never NULL itself. */
  private def nullTest(v: EvalVal, isNotNull: Boolean): EvalVal = v match {
    case VecVal(c) =>
      val out = new Array[Boolean](c.length)
      c.validity match {
        case None => java.util.Arrays.fill(out, isNotNull)
        case Some(valid) =>
          var i = 0
          while (i < out.length) { out(i) = valid(i) == isNotNull; i += 1 }
      }
      VecVal(Column("", DType.Bool, BoolTensor(out), None))
    case ScalarVal(x, _) => ScalarVal((x != null) == isNotNull, DType.Bool)
  }

  private def evalIn(c: Column, values: Seq[Any]): Column = c.dtype match {
    case DType.Str =>
      val masks = values.map(v => StringTensor.eqConst(c.str, v.asInstanceOf[String]))
      Column("", DType.Bool, masks.reduce(TensorOps.logicalOr), c.validity)
    case DType.F64 =>
      val masks = values.map(v => TensorOps.cmp(TensorOps.Eq, c.f64, F64Tensor(Array(numAsDouble(v)))))
      Column("", DType.Bool, masks.reduce(TensorOps.logicalOr), c.validity)
    case _ =>
      Column("", DType.Bool, TensorOps.isin(c.i64, values.map(numAsLong).toArray), c.validity)
  }

  private def evalCase(cw: CaseWhen, branches: Seq[(Expr, Expr)], elseValue: Option[Expr],
                       table: TensorTable, env: ExecEnv): EvalVal = {
    require(cw.supported, s"CASE over ${cw.dtype} unsupported")
    val n = table.numRows
    val dt = cw.dtype
    val elseCol = elseValue.map(e => asVec(eval(e, table, env), n))
    // Fold from the last branch backwards: result = where(cond, branch, acc).
    var acc: Column = elseCol.getOrElse(asVec(ScalarVal(null, dt), n))
    branches.reverse.foreach { case (condE, valE) =>
      val mask = evalMask(condE, table, env)
      val v    = asVec(eval(valE, table, env), n)
      val validity =
        if (v.validity.isEmpty && acc.validity.isEmpty) None
        else {
          val vv = v.validity.orNull; val av = acc.validity.orNull
          val out = new Array[Boolean](n)
          var i = 0
          while (i < n) { out(i) = if (mask.data(i)) vv == null || vv(i) else av == null || av(i); i += 1 }
          Some(out)
        }
      acc =
        if (dt == DType.F64) {
          val vf = if (isF64(v.dtype)) v.f64 else TensorOps.toF64(v.i64)
          val af = if (isF64(acc.dtype)) acc.f64 else TensorOps.toF64(acc.i64)
          Column("", DType.F64, TensorOps.where(mask, vf, af), validity)
        } else Column("", dt, TensorOps.where(mask, v.i64, acc.i64), validity)
    }
    VecVal(acc)
  }

  private def evalCast(v: EvalVal, dt: DType, n: Int): EvalVal = v match {
    case ScalarVal(null, _) => ScalarVal(null, dt)
    case ScalarVal(x, from) =>
      val out: Any = (from, dt) match {
        case (a, b) if a == b        => x
        case (_, DType.F64)          => numAsDouble(x)
        case (_, DType.I64)          => numAsLong(x)
        case (DType.I64, DType.Date) => numAsLong(x)
        case (_, DType.Str)          => x.toString
        case other => throw new IllegalArgumentException(s"cast $other unsupported")
      }
      ScalarVal(out, dt)
    case VecVal(c) =>
      if (c.dtype == dt) v
      else (c.dtype, dt) match {
        case (DType.I64, DType.F64) | (DType.Date, DType.F64) =>
          VecVal(Column("", DType.F64, TensorOps.toF64(c.i64), c.validity))
        case (DType.F64, DType.I64) =>
          VecVal(Column("", DType.I64, TensorOps.toI64(c.f64), c.validity))
        case (DType.I64, DType.Date) | (DType.Date, DType.I64) =>
          VecVal(Column("", dt, c.i64, c.validity))
        case other => throw new IllegalArgumentException(s"vector cast $other unsupported")
      }
  }
}
