package repro.core.compile

import org.apache.spark.sql.catalyst.expressions.{AttributeReference, Expression => CExpr, In, InSet, Literal}
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import org.scalatest.funsuite.AnyFunSuite
import repro.core.expr.Expr

/** Catalyst values become TQP values the same way in a literal, an IN list
  * and an `InSet`.
  */
class CatalystFrontendSpec extends AnyFunSuite {

  private def members(e: CExpr): Seq[Any] = CatalystFrontend.translateExpression(e) match {
    case Expr.InValues(_, vs) => vs
    case other                => fail(s"not an IN: $other")
  }

  test("literals, IN lists and InSet members convert every supported type alike") {
    // (type, Catalyst value, TQP value)
    val cases: Seq[(DataType, Any, Any)] = Seq(
      (IntegerType, 3, 3L), (LongType, 4L, 4L), (ShortType, 5.toShort, 5L),
      (DoubleType, 1.5, 1.5), (FloatType, 2.5f, 2.5), (DecimalType(10, 2), Decimal(BigDecimal("1.25"), 10, 2), 1.25),
      (StringType, UTF8String.fromString("ab"), "ab"), (DateType, 9000, 9000L), (BooleanType, true, true))
    for ((dt, v, want) <- cases) withClue(s"$dt: ") {
      val x = AttributeReference("x", dt)()
      assert(CatalystFrontend.translateExpression(Literal(v, dt)) == Expr.Lit(want, CatalystFrontend.dtypeOf(dt)))
      assert(members(In(x, Seq(Literal(v, dt), Literal(null, dt)))) == Seq(want, null))
      assert(members(InSet(x, Set(v))) == Seq(want))
    }
  }
}
