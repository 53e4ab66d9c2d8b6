package repro.core.ops

import org.scalatest.funsuite.AnyFunSuite
import repro.core.data.{Column, DType, TensorTable}
import repro.core.expr._
import repro.core.ir.IRVar
import repro.tensor._

/** Algorithm 3 unit tests: grouped and global aggregation, nulls, DISTINCT,
  * string min/max, empty inputs — in sort-based and hash-based grouping,
  * each under both expression backends.
  */
class AggregateOpSpec extends AnyFunSuite {
  import Expr._

  private def v(n: String, dt: DType) = IRVar(n, n, dt)
  private def slot(i: Int, dt: DType): Expr = ColRef(AggCall.slotName(i), dt)

  private val table = TensorTable(Vector(
    Column("g", DType.I64, I64Tensor(Array(2L, 1L, 2L, 1L, 2L))),
    Column("x", DType.F64, F64Tensor(Array(10.0, 20.0, 30.0, 40.0, 50.0))),
    Column("nx", DType.F64, F64Tensor(Array(1.0, 0.0, 3.0, 0.0, 5.0)),
      Some(Array(true, false, true, false, true))),
    Column("s", DType.Str, StringTensor.fromStrings(Array("b", "z", "a", "y", "a"))),
  ))

  private val backends = Seq("interpreted" -> ExprEval, "compiled" -> ExprCompiler)

  /** A test whose body runs once per expression backend. */
  private def testBoth(name: String)(check: ExprBackend => Unit): Unit =
    test(name)(backends.foreach { case (b, exprs) => withClue(s"[$b] ")(check(exprs)) })

  private def run(exprs: ExprBackend, groupKeys: Seq[(Expr, IRVar)], aggs: Seq[AggCall],
                  res: Seq[(Expr, IRVar)], hash: Boolean = false,
                  input: TensorTable = table): TensorTable =
    AggregateOp.execute(input, groupKeys, aggs, res, exprs, hashGroups = hash, ExecEnv.empty)

  private val gKey = Seq((ColRef("g", DType.I64): Expr, v("g", DType.I64)))

  testBoth("grouped sum/count/avg/min/max (sort and hash paths)") { exprs =>
    for (hash <- Seq(false, true)) {
      val out = run(exprs, gKey,
        Seq(AggCall(AggFn.Sum, Some(ColRef("x", DType.F64)), distinct = false),
            AggCall(AggFn.CountStar, None, distinct = false),
            AggCall(AggFn.Avg, Some(ColRef("x", DType.F64)), distinct = false),
            AggCall(AggFn.Min, Some(ColRef("x", DType.F64)), distinct = false),
            AggCall(AggFn.Max, Some(ColRef("x", DType.F64)), distinct = false)),
        Seq((ColRef("g", DType.I64), v("g", DType.I64)),
            (slot(0, DType.F64), v("s", DType.F64)),
            (slot(1, DType.I64), v("c", DType.I64)),
            (slot(2, DType.F64), v("a", DType.F64)),
            (slot(3, DType.F64), v("mn", DType.F64)),
            (slot(4, DType.F64), v("mx", DType.F64))), hash)
      val rows = (0 until out.numRows).map { i =>
        (out.column("g").i64.data(i), out.column("s").f64.data(i), out.column("c").i64.data(i),
         out.column("a").f64.data(i), out.column("mn").f64.data(i), out.column("mx").f64.data(i))
      }.sortBy(_._1)
      assert(rows == Seq((1L, 60.0, 2L, 30.0, 20.0, 40.0), (2L, 90.0, 3L, 30.0, 10.0, 50.0)))
    }
  }

  testBoth("nulls are skipped by sum/count/avg but counted by count(*)") { exprs =>
    val out = run(exprs, gKey,
      Seq(AggCall(AggFn.Sum, Some(ColRef("nx", DType.F64)), distinct = false),
          AggCall(AggFn.Count, Some(ColRef("nx", DType.F64)), distinct = false),
          AggCall(AggFn.CountStar, None, distinct = false),
          AggCall(AggFn.Avg, Some(ColRef("nx", DType.F64)), distinct = false)),
      Seq((ColRef("g", DType.I64), v("g", DType.I64)),
          (slot(0, DType.F64), v("s", DType.F64)),
          (slot(1, DType.I64), v("c", DType.I64)),
          (slot(2, DType.I64), v("cs", DType.I64)),
          (slot(3, DType.F64), v("a", DType.F64))))
    val byG = (0 until out.numRows).map(i => out.column("g").i64.data(i) -> i).toMap
    val g1 = byG(1L); val g2 = byG(2L)
    // Group 1: both values null → sum/avg null, count 0, count(*) 2.
    assert(!out.column("s").isValid(g1) && !out.column("a").isValid(g1))
    assert(out.column("c").i64.data(g1) == 0L && out.column("cs").i64.data(g1) == 2L)
    // Group 2: 1+3+5 = 9, count 3.
    assert(out.column("s").f64.data(g2) == 9.0 && out.column("c").i64.data(g2) == 3L)
  }

  testBoth("count distinct and sum distinct") { exprs =>
    val out = run(exprs, gKey,
      Seq(AggCall(AggFn.Count, Some(ColRef("s", DType.Str)), distinct = true),
          AggCall(AggFn.Sum, Some(ColRef("x", DType.F64)), distinct = false)),
      Seq((ColRef("g", DType.I64), v("g", DType.I64)),
          (slot(0, DType.I64), v("cd", DType.I64)),
          (slot(1, DType.F64), v("sx", DType.F64))))
    val rows = (0 until out.numRows).map { i =>
      (out.column("g").i64.data(i), out.column("cd").i64.data(i))
    }.sortBy(_._1)
    // g=1 has {z, y} → 2; g=2 has {b, a, a} → 2 distinct.
    assert(rows == Seq((1L, 2L), (2L, 2L)))
  }

  testBoth("min/max over strings") { exprs =>
    val out = run(exprs, gKey,
      Seq(AggCall(AggFn.Min, Some(ColRef("s", DType.Str)), distinct = false),
          AggCall(AggFn.Max, Some(ColRef("s", DType.Str)), distinct = false)),
      Seq((ColRef("g", DType.I64), v("g", DType.I64)),
          (slot(0, DType.Str), v("mn", DType.Str)),
          (slot(1, DType.Str), v("mx", DType.Str))))
    val rows = (0 until out.numRows).map { i =>
      (out.column("g").i64.data(i), out.column("mn").str.rowString(i), out.column("mx").str.rowString(i))
    }.sortBy(_._1)
    assert(rows == Seq((1L, "y", "z"), (2L, "a", "b")))
  }

  testBoth("global aggregate over empty input returns one row with SQL semantics") { exprs =>
    val empty = TensorTable(Vector(
      Column("x", DType.F64, F64Tensor(Array.emptyDoubleArray))))
    val out = run(exprs, Nil,
      Seq(AggCall(AggFn.Sum, Some(ColRef("x", DType.F64)), distinct = false),
          AggCall(AggFn.CountStar, None, distinct = false)),
      Seq((slot(0, DType.F64), v("s", DType.F64)),
          (slot(1, DType.I64), v("c", DType.I64))),
      input = empty)
    assert(out.numRows == 1)
    assert(!out.column("s").isValid(0), "sum over empty is NULL")
    assert(out.column("c").i64.data(0) == 0L)
  }

  testBoth("grouped aggregate over empty input returns zero rows") { exprs =>
    val empty = TensorTable(Vector(
      Column("g", DType.I64, I64Tensor(Array.emptyLongArray)),
      Column("x", DType.F64, F64Tensor(Array.emptyDoubleArray))))
    val out = run(exprs, gKey,
      Seq(AggCall(AggFn.Sum, Some(ColRef("x", DType.F64)), distinct = false)),
      Seq((ColRef("g", DType.I64), v("g", DType.I64)), (slot(0, DType.F64), v("s", DType.F64))),
      input = empty)
    assert(out.numRows == 0)
  }

  testBoth("post-aggregation expressions combine slots (sum/sum)") { exprs =>
    val out = run(exprs, gKey,
      Seq(AggCall(AggFn.Sum, Some(ColRef("x", DType.F64)), distinct = false),
          AggCall(AggFn.CountStar, None, distinct = false)),
      Seq((Arith(DivK, slot(0, DType.F64), slot(1, DType.I64)), v("manual_avg", DType.F64))))
    val vals = (0 until out.numRows).map(i => out.column("manual_avg").f64.data(i)).sorted
    assert(vals == Seq(30.0, 30.0))
  }

  testBoth("a NULL group key is its own group, whatever value its row stores (sort and hash paths)") { exprs =>
    // k = 1, NULL (stored 0), 0, 0, NULL (stored 0); s = x, x, NULL (stored y), y, x.
    val input = TensorTable(Vector(
      Column("k", DType.I64, I64Tensor(Array(1L, 0L, 0L, 0L, 0L)), Some(Array(true, false, true, true, false))),
      Column("s", DType.Str, StringTensor.fromStrings(Array("x", "x", "y", "y", "x")),
        Some(Array(true, true, false, true, true)))))
    def rows(out: TensorTable, cols: Seq[String]) = (0 until out.numRows).map { i =>
      val keys = cols.map { c =>
        val col = out.column(c)
        Option.when(col.isValid(i))(if (col.dtype == DType.Str) col.str.rowString(i) else col.i64.data(i))
      }
      (keys, out.column("c").i64.data(i))
    }.toSet
    def key(c: String, dt: DType) = (ColRef(c, dt): Expr, v(c, dt))
    val count = Seq(AggCall(AggFn.CountStar, None, distinct = false))
    for (hash <- Seq(false, true)) withClue(s"hash=$hash ") {
      val byK = run(exprs, Seq(key("k", DType.I64)), count,
        Seq(key("k", DType.I64), (slot(0, DType.I64), v("c", DType.I64))), hash, input)
      assert(rows(byK, Seq("k")) == Set((Seq(Some(1L)), 1L), (Seq(None), 2L), (Seq(Some(0L)), 2L)))
      val byKS = run(exprs, Seq(key("k", DType.I64), key("s", DType.Str)), count,
        Seq(key("k", DType.I64), key("s", DType.Str), (slot(0, DType.I64), v("c", DType.I64))), hash, input)
      assert(rows(byKS, Seq("k", "s")) == Set(
        (Seq(Some(1L), Some("x")), 1L), (Seq(None, Some("x")), 2L), (Seq(Some(0L), None), 1L), (Seq(Some(0L), Some("y")), 1L)))
    }
  }

  testBoth("multi-column group keys") { exprs =>
    val t2 = table.withColumn(Column("g2", DType.Str,
      StringTensor.fromStrings(Array("p", "p", "q", "p", "q"))))
    val out = AggregateOp.execute(t2,
      Seq((ColRef("g", DType.I64), v("g", DType.I64)), (ColRef("g2", DType.Str), v("g2", DType.Str))),
      Seq(AggCall(AggFn.CountStar, None, distinct = false)),
      Seq((ColRef("g", DType.I64), v("g", DType.I64)),
          (ColRef("g2", DType.Str), v("g2", DType.Str)),
          (slot(0, DType.I64), v("c", DType.I64))),
      exprs, hashGroups = false, ExecEnv.empty)
    val rows = (0 until out.numRows).map { i =>
      (out.column("g").i64.data(i), out.column("g2").str.rowString(i), out.column("c").i64.data(i))
    }.toSet
    assert(rows == Set((2L, "p", 1L), (1L, "p", 2L), (2L, "q", 2L)))
  }

  testBoth("grouped aggregates are bit-identical to a row-order loop (sort and hash paths)") { exprs =>
    val n = 120000
    val rnd = new scala.util.Random(2024)
    // ~3000 signed keys spread over ~24M values: every radix pass runs.
    val keys = Array.fill(n)((rnd.nextInt(3000) - 1500) * 7919L)
    val allNullKey = keys(0) // every row of this group is null
    // A small pool of mixed magnitudes, so groups repeat values (DISTINCT).
    val pool = Array.fill(200)((rnd.nextDouble() + 0.01) * math.pow(10.0, rnd.nextInt(13) - 6) *
      (if (rnd.nextBoolean()) 1 else -1))
    val xs = Array.fill(n)(pool(rnd.nextInt(pool.length)))
    val valid = Array.tabulate(n)(i => keys(i) != allNullKey && rnd.nextInt(10) != 0)
    val input = TensorTable(Vector(
      Column("k", DType.I64, I64Tensor(keys)),
      Column("x", DType.F64, F64Tensor(xs), Some(valid))))

    // Reference: one pass in row order per group.
    final class Acc {
      var sum = 0.0; var cnt = 0L; var rows = 0L
      var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
      var dsum = 0.0; val seen = scala.collection.mutable.Set[Double]()
    }
    val ref = scala.collection.mutable.Map[Long, Acc]()
    for (i <- 0 until n) {
      val a = ref.getOrElseUpdate(keys(i), new Acc)
      a.rows += 1
      if (valid(i)) {
        val x = xs(i)
        a.sum += x; a.cnt += 1
        if (x < a.mn) a.mn = x
        if (x > a.mx) a.mx = x
        if (a.seen.add(x)) a.dsum += x
      }
    }

    val x = Some(ColRef("x", DType.F64))
    val calls = Seq(AggFn.Sum, AggFn.Avg, AggFn.Min, AggFn.Max, AggFn.Count)
      .map(fn => AggCall(fn, x, distinct = false)) ++
      Seq(AggCall(AggFn.CountStar, None, distinct = false), AggCall(AggFn.Sum, x, distinct = true))
    val names = Seq("s", "a", "mn", "mx", "c", "cs", "ds")
    val types = Seq(DType.F64, DType.F64, DType.F64, DType.F64, DType.I64, DType.I64, DType.F64)
    val res = (ColRef("k", DType.I64): Expr, v("k", DType.I64)) +:
      names.indices.map(j => (slot(j, types(j)): Expr, v(names(j), types(j))))
    for (hash <- Seq(false, true)) withClue(s"hash=$hash ") {
      val out = run(exprs, Seq((ColRef("k", DType.I64), v("k", DType.I64))), calls, res, hash, input)
      assert(out.numRows == ref.size)
      def f(c: String, i: Int): Option[Double] =
        if (out.column(c).isValid(i)) Some(out.column(c).f64.data(i)) else None
      for (i <- 0 until out.numRows) {
        val k = out.column("k").i64.data(i)
        val a = ref(k)
        val some = a.cnt > 0
        withClue(s"key $k: ") {
          assert(f("s", i) == Option.when(some)(a.sum))
          assert(f("a", i) == Option.when(some)(a.sum / a.cnt.toDouble))
          assert(f("mn", i) == Option.when(some)(a.mn))
          assert(f("mx", i) == Option.when(some)(a.mx))
          assert(out.column("c").i64.data(i) == a.cnt)
          assert(out.column("cs").i64.data(i) == a.rows)
          assert(f("ds", i) == Option.when(some)(a.dsum))
        }
      }
      assert(ref(allNullKey).cnt == 0 && ref.values.exists(a => a.seen.size < a.cnt))
    }
  }
}
