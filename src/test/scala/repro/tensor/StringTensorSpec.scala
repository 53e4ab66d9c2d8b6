package repro.tensor

import org.scalatest.funsuite.AnyFunSuite

/** String tensor kernels: the `(n×m)` padded character-matrix representation
  * of §4.1 and the predicates built on it.
  */
class StringTensorSpec extends AnyFunSuite {

  private val values = Array("apple", "banana", "", "apple pie", "GREEN metal", "bar", "barn", "x")
  private val t = StringTensor.fromStrings(values)

  test("round-trips through the padded matrix") {
    assert(values.indices.map(t.rowString).toSeq == values.toSeq)
    assert(t.width == values.map(_.length).max)
  }

  test("eqConst matches exact strings only") {
    assert(StringTensor.eqConst(t, "apple").data.toSeq == values.map(_ == "apple").toSeq)
    assert(StringTensor.eqConst(t, "").data.toSeq == values.map(_ == "").toSeq)
    // Literal longer than the column width can never match.
    assert(StringTensor.eqConst(t, "a" * 40).data.forall(!_))
  }

  test("cmpConst is lexicographic") {
    def ref(op: (Int, Int) => Boolean, lit: String) = values.map(v => op(v.compareTo(lit), 0)).toSeq
    assert(StringTensor.cmpConst(t, "bar", _ < _).data.toSeq == ref(_ < _, "bar"))
    assert(StringTensor.cmpConst(t, "bar", _ >= _).data.toSeq == ref(_ >= _, "bar"))
  }

  test("startsWith / endsWith / contains") {
    assert(StringTensor.startsWith(t, "ba").data.toSeq == values.map(_.startsWith("ba")).toSeq)
    assert(StringTensor.endsWith(t, "n").data.toSeq == values.map(_.endsWith("n")).toSeq)
    assert(StringTensor.contains(t, "pp").data.toSeq == values.map(_.contains("pp")).toSeq)
  }

  test("like handles %, _, anchors and multi-segment patterns") {
    def refLike(v: String, p: String): Boolean = {
      val rx = ("^" + p.flatMap {
        case '%' => ".*"
        case '_' => "."
        case c   => java.util.regex.Pattern.quote(c.toString)
      } + "$").r
      rx.findFirstIn(v).isDefined
    }
    val patterns = Seq("apple", "%pie", "ba%", "%an%", "%a%e%", "b_r", "%", "a%p%e", "%metal", "_", "ap%_e")
    patterns.foreach { p =>
      val got = StringTensor.like(t, p).data.toSeq
      val exp = values.map(refLike(_, p)).toSeq
      assert(got == exp, s"pattern '$p': got $got expected $exp")
    }
  }

  test("like mirrors TPC-H patterns") {
    val comments = StringTensor.fromStrings(Array(
      "the special final requests", "special requests", "requests special",
      "nothing here", "specialrequests yep"))
    assert(StringTensor.like(comments, "%special%requests%").data.toSeq ==
      Seq(true, true, false, false, true))
  }

  test("substring is 1-based and clamps") {
    val s = StringTensor.substring(t, 1, 2)
    assert(values.indices.map(s.rowString).toSeq == values.map(v => v.take(2)).toSeq)
    val mid = StringTensor.substring(t, 3, 3)
    assert(values.indices.map(mid.rowString).toSeq == values.map(v => v.drop(2).take(3)).toSeq)
  }

  test("indexSelect gathers rows") {
    val s = StringTensor.indexSelect(t, I64Tensor(Array(1L, 0L, 1L)))
    assert((0 until 3).map(s.rowString) == Seq("banana", "apple", "banana"))
  }

  test("dictEncode assigns lexicographic ranks") {
    val (codes, dict) = StringTensor.dictEncode(t)
    assert(dict.toSeq == values.distinct.sorted.toSeq)
    values.indices.foreach { i =>
      assert(dict(codes.data(i).toInt) == values(i))
    }
    // Order preservation: code comparison == string comparison.
    for (i <- values.indices; j <- values.indices)
      assert((codes.data(i) < codes.data(j)) == (values(i) < values(j)))
  }

  /** Unsigned byte order of the UTF-8 encodings, the order Spark and DuckDB sort strings by. */
  private def byteOrder(a: String, b: String): Boolean =
    java.util.Arrays.compareUnsigned(a.getBytes("UTF-8"), b.getBytes("UTF-8")) < 0

  test("packBytes orders rows by unsigned bytes, non-ASCII and width 8 included") {
    // "é" and "ü" are two bytes each with the top bit set; "éééé" fills all
    // 8 bytes, so its first byte lands on the sign bit.
    for (vals <- Seq(Array("R", "A", "N", "F", "", "A"), Array("é", "z", "", "ab", "zz", "ü", "é"),
                     Array("Brand#12", "Brand#3", "éééé", "", "zzzzzzzz", "ü", "Brand#12"))) {
      val st = StringTensor.fromStrings(vals)
      val packed = StringTensor.packBytes(st).data
      for (i <- vals.indices; j <- vals.indices) {
        assert((packed(i) < packed(j)) == byteOrder(vals(i), vals(j)), s"${vals(i)} vs ${vals(j)}")
        assert((packed(i) == packed(j)) == (vals(i) == vals(j)), s"${vals(i)} vs ${vals(j)}")
      }
    }
    assertThrows[IllegalArgumentException](StringTensor.packBytes(StringTensor.fromStrings(Array("ninebytes"))))
  }

  test("dictEncode ranks non-ASCII strings in unsigned byte order") {
    // UTF-16 order (java.lang.String) puts the emoji (a surrogate pair, 0xD83D…)
    // before the full-width 'ｚ' (0xFF5A); their UTF-8 bytes (0xF0… > 0xEF…) do not.
    val vals = Array("😀", "ｚ", "z", "é", "", "😀")
    val (codes, dict) = StringTensor.dictEncode(StringTensor.fromStrings(vals))
    assert(dict.toSeq == Seq("", "z", "é", "ｚ", "😀"))
    for (i <- vals.indices; j <- vals.indices)
      assert((codes.data(i) < codes.data(j)) == byteOrder(vals(i), vals(j)))
  }

  test("cat merges with width promotion") {
    val a = StringTensor.fromStrings(Array("ab"))
    val b = StringTensor.fromStrings(Array("wxyz", "q"))
    val c = StringTensor.cat(a, b)
    assert((0 until 3).map(c.rowString) == Seq("ab", "wxyz", "q"))
    assert(c.width == 4)
  }

  test("eqCols compares row-wise") {
    val a = StringTensor.fromStrings(Array("x", "yy", "z"))
    val b = StringTensor.fromStrings(Array("x", "ny", "zz"))
    assert(StringTensor.eqCols(a, b).data.toSeq == Seq(true, false, false))
  }
}
