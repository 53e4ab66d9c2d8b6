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
            var i = 0
            while (i < c.length) { out(i) = valid(i) && c.bool.data(i); i += 1 }
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
    case AggRef(_, _)  => throw new IllegalStateException("AggRef outside aggregation")

    case Arith(kind, l, r) => evalArith(kind, eval(l, table, env), eval(r, table, env))
    case Neg(x) =>
      eval(x, table, env) match {
        case VecVal(c) if c.dtype == DType.F64 =>
          VecVal(Column("", DType.F64, TensorOps.neg(c.f64), c.validity))
        case VecVal(c) =>
          VecVal(Column("", DType.I64, mapI64(c.i64)(v => -v), c.validity))
        case ScalarVal(null, dt) => ScalarVal(null, dt)
        case ScalarVal(v: java.lang.Double, dt) => ScalarVal(-v.doubleValue, dt)
        case ScalarVal(v: java.lang.Long, dt)   => ScalarVal(-v.longValue, dt)
        case other => throw new IllegalArgumentException(s"neg over $other")
      }

    case Cmp(kind, l, r) => evalCmp(kind, eval(l, table, env), eval(r, table, env))

    case And(l, r) => evalBool2(eval(l, table, env), eval(r, table, env), table.numRows)(_ && _)
    case Or(l, r)  => evalBool2(eval(l, table, env), eval(r, table, env), table.numRows)(_ || _)
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

    case IsNull(x) =>
      eval(x, table, env) match {
        case VecVal(c) =>
          val valid = c.validity.getOrElse(Array.fill(c.length)(true))
          VecVal(Column("", DType.Bool, BoolTensor(valid.map(!_)), None))
        case ScalarVal(v, _) => ScalarVal(v == null, DType.Bool)
      }
    case IsNotNull(x) =>
      eval(x, table, env) match {
        case VecVal(c) =>
          VecVal(Column("", DType.Bool, BoolTensor(c.validity.getOrElse(Array.fill(c.length)(true)).clone()), None))
        case ScalarVal(v, _) => ScalarVal(v != null, DType.Bool)
      }

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
      VecVal(Column("", DType.I64,
        mapI64(c.i64)(d => java.time.LocalDate.ofEpochDay(d).getYear.toLong), c.validity))
  }

  // ----------------------------------------------------------------
  // Kernel helpers
  // ----------------------------------------------------------------

  private def mapI64(a: I64Tensor)(f: Long => Long): I64Tensor = {
    val out = new Array[Long](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = f(a.data(i)); i += 1 }
    }
    Profile.rec("map", OpClass.ElementWise, a.length, a.length * 16L)
    I64Tensor(out)
  }

  private def mapF64FromI64(a: I64Tensor)(f: Long => Double): F64Tensor = {
    val out = new Array[Double](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = f(a.data(i)); i += 1 }
    }
    Profile.rec("map", OpClass.ElementWise, a.length, a.length * 16L)
    F64Tensor(out)
  }

  private def mapF64(a: F64Tensor)(f: Double => Double): F64Tensor = {
    val out = new Array[Double](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = f(a.data(i)); i += 1 }
    }
    Profile.rec("map", OpClass.ElementWise, a.length, a.length * 16L)
    F64Tensor(out)
  }

  private def cmpMaskF64(a: F64Tensor)(f: Double => Boolean): BoolTensor = {
    val out = new Array[Boolean](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = f(a.data(i)); i += 1 }
    }
    Profile.rec("cmp", OpClass.ElementWise, a.length, a.length * 9L)
    BoolTensor(out)
  }

  private def cmpMaskI64(a: I64Tensor)(f: Long => Boolean): BoolTensor = {
    val out = new Array[Boolean](a.length)
    ExecCtx.current.device.parallelRanges(a.length) { (s, e) =>
      var i = s; while (i < e) { out(i) = f(a.data(i)); i += 1 }
    }
    Profile.rec("cmp", OpClass.ElementWise, a.length, a.length * 9L)
    BoolTensor(out)
  }

  private def andValidity(a: Option[Array[Boolean]], b: Option[Array[Boolean]]): Option[Array[Boolean]] =
    (a, b) match {
      case (None, None)       => None
      case (Some(x), None)    => Some(x)
      case (None, Some(y))    => Some(y)
      case (Some(x), Some(y)) => Some(Array.tabulate(x.length)(i => x(i) && y(i)))
    }

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
        Column("", dt, t, Some(Array.fill(n)(false)))
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

  private def numAsDouble(v: Any): Double = v match {
    case d: java.lang.Double => d
    case l: java.lang.Long   => l.toDouble
    case i: java.lang.Integer => i.toDouble
    case o => throw new IllegalArgumentException(s"not numeric: $o")
  }

  private def numAsLong(v: Any): Long = v match {
    case l: java.lang.Long    => l
    case i: java.lang.Integer => i.toLong
    case d: java.lang.Double  => d.toLong
    case o => throw new IllegalArgumentException(s"not numeric: $o")
  }

  private def isF64(dt: DType): Boolean = dt == DType.F64

  // ----------------------------------------------------------------
  // Arithmetic
  // ----------------------------------------------------------------

  private def evalArith(kind: ArithKind, lv: EvalVal, rv: EvalVal): EvalVal = {
    val asDouble = kind == DivK || isF64(lv.dtype) || isF64(rv.dtype)
    val nullOut  = ScalarVal(null, if (asDouble) DType.F64 else DType.I64)
    (lv, rv) match {
      case (ScalarVal(a, _), ScalarVal(b, _)) =>
        if (a == null || b == null) nullOut
        else if (asDouble) ScalarVal(opD(kind)(numAsDouble(a), numAsDouble(b)), DType.F64)
        else ScalarVal(opL(kind)(numAsLong(a), numAsLong(b)), DType.I64)

      case (VecVal(c), ScalarVal(b, _)) =>
        if (b == null) VecVal(asVec(nullOut, c.length))
        else if (asDouble) {
          val bd = numAsDouble(b); val f = opD(kind)
          val t = if (isF64(c.dtype)) mapF64(c.f64)(x => f(x, bd)) else mapF64FromI64(c.i64)(x => f(x.toDouble, bd))
          VecVal(Column("", DType.F64, t, c.validity))
        } else {
          val bl = numAsLong(b); val f = opL(kind)
          VecVal(Column("", DType.I64, mapI64(c.i64)(x => f(x, bl)), c.validity))
        }

      case (ScalarVal(a, _), VecVal(c)) =>
        if (a == null) VecVal(asVec(nullOut, c.length))
        else if (asDouble) {
          val ad = numAsDouble(a); val f = opD(kind)
          val t = if (isF64(c.dtype)) mapF64(c.f64)(x => f(ad, x)) else mapF64FromI64(c.i64)(x => f(ad, x.toDouble))
          VecVal(Column("", DType.F64, t, c.validity))
        } else {
          val al = numAsLong(a); val f = opL(kind)
          VecVal(Column("", DType.I64, mapI64(c.i64)(x => f(al, x)), c.validity))
        }

      case (VecVal(a), VecVal(b)) =>
        val validity = andValidity(a.validity, b.validity)
        if (asDouble) {
          val af = if (isF64(a.dtype)) a.f64 else TensorOps.toF64(a.i64)
          val bf = if (isF64(b.dtype)) b.f64 else TensorOps.toF64(b.i64)
          val t = kind match {
            case AddK => TensorOps.add(af, bf)
            case SubK => TensorOps.sub(af, bf)
            case MulK => TensorOps.mul(af, bf)
            case DivK => TensorOps.div(af, bf)
          }
          VecVal(Column("", DType.F64, t, validity))
        } else {
          val t = kind match {
            case AddK => TensorOps.add(a.i64, b.i64)
            case SubK => TensorOps.sub(a.i64, b.i64)
            case MulK => TensorOps.mul(a.i64, b.i64)
            case DivK => throw new IllegalStateException("int div handled as double")
          }
          VecVal(Column("", DType.I64, t, validity))
        }
    }
  }

  private def opD(kind: ArithKind): (Double, Double) => Double = kind match {
    case AddK => _ + _; case SubK => _ - _; case MulK => _ * _; case DivK => _ / _
  }
  private def opL(kind: ArithKind): (Long, Long) => Long = kind match {
    case AddK => _ + _; case SubK => _ - _; case MulK => _ * _
    case DivK => throw new IllegalStateException("int div handled as double")
  }

  // ----------------------------------------------------------------
  // Comparison
  // ----------------------------------------------------------------

  private def evalCmp(kind: CmpKind, lv: EvalVal, rv: EvalVal): EvalVal = {
    def cmpOp: (Int, Int) => Boolean = kind match {
      case EqK => _ == _; case NeK => _ != _
      case LtK => _ < _;  case LeK => _ <= _
      case GtK => _ > _;  case GeK => _ >= _
    }
    (lv, rv) match {
      case (ScalarVal(a, adt), ScalarVal(b, _)) =>
        if (a == null || b == null) ScalarVal(null, DType.Bool)
        else adt match {
          case DType.Str => ScalarVal(cmpOp(a.asInstanceOf[String].compareTo(b.asInstanceOf[String]), 0), DType.Bool)
          case DType.F64 => ScalarVal(cmpOp(java.lang.Double.compare(numAsDouble(a), numAsDouble(b)), 0), DType.Bool)
          case _         => ScalarVal(cmpOp(java.lang.Long.compare(numAsLong(a), numAsLong(b)), 0), DType.Bool)
        }

      case (VecVal(c), ScalarVal(b, _)) => cmpVecScalar(kind, c, b, flipped = false)
      case (ScalarVal(a, _), VecVal(c)) => cmpVecScalar(kind, c, a, flipped = true)

      case (VecVal(a), VecVal(b)) =>
        val validity = andValidity(a.validity, b.validity)
        val mask: BoolTensor = (a.dtype, b.dtype) match {
          case (DType.Str, DType.Str) =>
            kind match {
              case EqK => StringTensor.eqCols(a.str, b.str)
              case NeK => TensorOps.logicalNot(StringTensor.eqCols(a.str, b.str))
              case _   => throw new IllegalArgumentException("string ordering between columns unsupported")
            }
          case (da, db) if da == DType.F64 || db == DType.F64 =>
            val af = if (isF64(da)) a.f64 else TensorOps.toF64(a.i64)
            val bf = if (isF64(db)) b.f64 else TensorOps.toF64(b.i64)
            kind match {
              case EqK => TensorOps.eq(af, bf); case NeK => TensorOps.ne(af, bf)
              case LtK => TensorOps.lt(af, bf); case LeK => TensorOps.le(af, bf)
              case GtK => TensorOps.gt(af, bf); case GeK => TensorOps.ge(af, bf)
            }
          case _ =>
            kind match {
              case EqK => TensorOps.eq(a.i64, b.i64); case NeK => TensorOps.ne(a.i64, b.i64)
              case LtK => TensorOps.lt(a.i64, b.i64); case LeK => TensorOps.le(a.i64, b.i64)
              case GtK => TensorOps.gt(a.i64, b.i64); case GeK => TensorOps.ge(a.i64, b.i64)
            }
        }
        VecVal(Column("", DType.Bool, mask, validity))
    }
  }

  private def cmpVecScalar(kind: CmpKind, c: Column, b: Any, flipped: Boolean): EvalVal = {
    if (b == null) return VecVal(asVec(ScalarVal(null, DType.Bool), c.length))
    // When the scalar was on the left, compare(scalar, x) = -compare(x, scalar).
    def k: CmpKind = if (!flipped) kind else kind match {
      case LtK => GtK; case LeK => GeK; case GtK => LtK; case GeK => LeK; case other => other
    }
    val mask: BoolTensor = c.dtype match {
      case DType.Str =>
        val s = b.asInstanceOf[String]
        k match {
          case EqK => StringTensor.eqConst(c.str, s)
          case NeK => TensorOps.logicalNot(StringTensor.eqConst(c.str, s))
          case LtK => StringTensor.cmpConst(c.str, s, _ < _)
          case LeK => StringTensor.cmpConst(c.str, s, _ <= _)
          case GtK => StringTensor.cmpConst(c.str, s, _ > _)
          case GeK => StringTensor.cmpConst(c.str, s, _ >= _)
        }
      case DType.F64 =>
        val v = numAsDouble(b)
        k match {
          case EqK => cmpMaskF64(c.f64)(_ == v); case NeK => cmpMaskF64(c.f64)(_ != v)
          case LtK => cmpMaskF64(c.f64)(_ < v);  case LeK => cmpMaskF64(c.f64)(_ <= v)
          case GtK => cmpMaskF64(c.f64)(_ > v);  case GeK => cmpMaskF64(c.f64)(_ >= v)
        }
      case _ =>
        val v = numAsLong(b)
        k match {
          case EqK => cmpMaskI64(c.i64)(_ == v); case NeK => cmpMaskI64(c.i64)(_ != v)
          case LtK => cmpMaskI64(c.i64)(_ < v);  case LeK => cmpMaskI64(c.i64)(_ <= v)
          case GtK => cmpMaskI64(c.i64)(_ > v);  case GeK => cmpMaskI64(c.i64)(_ >= v)
        }
    }
    VecVal(Column("", DType.Bool, mask, c.validity))
  }

  // ----------------------------------------------------------------
  // Boolean connectives / IN / CASE / CAST
  // ----------------------------------------------------------------

  /** SQL three-valued AND/OR (Kleene): null OR true = true, null AND false
    * = false; null only survives when the known operand cannot decide.
    */
  private def evalBool2(lv: EvalVal, rv: EvalVal, n: Int)(f: (Boolean, Boolean) => Boolean): EvalVal =
    (lv, rv) match {
      case (ScalarVal(a, _), ScalarVal(b, _)) =>
        val isOr = f(true, false)
        (a, b) match {
          case (null, null) => ScalarVal(null, DType.Bool)
          case (null, x: java.lang.Boolean) => if (x == isOr) ScalarVal(isOr, DType.Bool) else ScalarVal(null, DType.Bool)
          case (x: java.lang.Boolean, null) => if (x == isOr) ScalarVal(isOr, DType.Bool) else ScalarVal(null, DType.Bool)
          case _ => ScalarVal(f(a.asInstanceOf[Boolean], b.asInstanceOf[Boolean]), DType.Bool)
        }
      case _ =>
        val a = asVec(lv, n); val b = asVec(rv, n)
        val isOr = f(true, false)
        if (a.validity.isEmpty && b.validity.isEmpty) {
          val t = if (isOr) TensorOps.logicalOr(a.bool, b.bool)
                  else TensorOps.logicalAnd(a.bool, b.bool)
          VecVal(Column("", DType.Bool, t, None))
        } else {
          val av = a.validity.getOrElse(Array.fill(n)(true))
          val bv = b.validity.getOrElse(Array.fill(n)(true))
          val out   = new Array[Boolean](n)
          val valid = new Array[Boolean](n)
          var i = 0
          while (i < n) {
            val aKnown = av(i); val bKnown = bv(i)
            val aVal = aKnown && a.bool.data(i)
            val bVal = bKnown && b.bool.data(i)
            if (isOr) {
              out(i)   = aVal || bVal
              valid(i) = out(i) || (aKnown && bKnown)
            } else {
              val falseKnown = (aKnown && !a.bool.data(i)) || (bKnown && !b.bool.data(i))
              out(i)   = aKnown && bKnown && a.bool.data(i) && b.bool.data(i)
              valid(i) = falseKnown || (aKnown && bKnown)
            }
            i += 1
          }
          Profile.rec("logical3v", OpClass.ElementWise, n, n * 5L)
          VecVal(Column("", DType.Bool, BoolTensor(out), Some(valid)))
        }
    }

  private def evalIn(c: Column, values: Seq[Any]): Column = c.dtype match {
    case DType.Str =>
      val masks = values.map(v => StringTensor.eqConst(c.str, v.asInstanceOf[String]))
      Column("", DType.Bool, masks.reduce(TensorOps.logicalOr), c.validity)
    case DType.F64 =>
      val set = values.map(numAsDouble).toSet
      Column("", DType.Bool, cmpMaskF64(c.f64)(set.contains), c.validity)
    case _ =>
      Column("", DType.Bool, TensorOps.isin(c.i64, values.map(numAsLong).toArray), c.validity)
  }

  private def evalCase(cw: CaseWhen, branches: Seq[(Expr, Expr)], elseValue: Option[Expr],
                       table: TensorTable, env: ExecEnv): EvalVal = {
    val n = table.numRows
    val dt = cw.dtype
    require(dt == DType.F64 || dt == DType.I64 || dt == DType.Date,
      s"CASE over $dt unsupported")
    val elseCol = elseValue.map(e => asVec(eval(e, table, env), n))
    // Fold from the last branch backwards: result = where(cond, branch, acc).
    var acc: Column = elseCol.getOrElse(asVec(ScalarVal(null, dt), n))
    branches.reverse.foreach { case (condE, valE) =>
      val mask = evalMask(condE, table, env)
      val v    = asVec(eval(valE, table, env), n)
      val validity = (v.validity, acc.validity) match {
        case (None, None) => None
        case _ =>
          val vv = v.validity.getOrElse(Array.fill(n)(true))
          val av = acc.validity.getOrElse(Array.fill(n)(true))
          Some(Array.tabulate(n)(i => if (mask.data(i)) vv(i) else av(i)))
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
