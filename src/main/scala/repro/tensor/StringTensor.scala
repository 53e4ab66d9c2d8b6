package repro.tensor

import OpClass._

/** `(n × m)` string tensor, exactly the paper's representation (§4.1):
  * one character (byte) per tensor column, right-padded with 0 to the
  * maximum string length `m` of the column.
  *
  * String kernels (equality, LIKE, substring, lexicographic rank) operate
  * directly on the padded matrix; no per-row `java.lang.String` objects are
  * allocated on the hot paths.
  */
final case class StringTensor(data: Array[Byte], width: Int, n: Int) extends Tensor {
  require(width == 0 || data.length == width * n, s"bad shape: ${data.length} != $width*$n")

  def length: Int    = n
  def elemBytes: Int = math.max(1, width)

  /** Materialize row `i` as a String (output conversion only). */
  def rowString(i: Int): String = {
    if (width == 0) return ""
    val base = i * width
    var len = width
    while (len > 0 && data(base + len - 1) == 0) len -= 1
    new String(data, base, len, java.nio.charset.StandardCharsets.UTF_8)
  }

  /** Lexicographic compare of row i against a padded literal of this width. */
  private[tensor] def cmpRow(i: Int, lit: Array[Byte]): Int = {
    val base = i * width
    var k = 0
    while (k < width) {
      val c = (data(base + k) & 0xff) - (lit(k) & 0xff)
      if (c != 0) return c
      k += 1
    }
    0
  }
}

object StringTensor {

  def fromStrings(values: Array[String]): StringTensor = {
    val bytes = values.map(v => Option(v).getOrElse("").getBytes(java.nio.charset.StandardCharsets.UTF_8))
    val width = if (bytes.isEmpty) 0 else bytes.map(_.length).max
    val data  = new Array[Byte](width * values.length)
    var i = 0
    while (i < bytes.length) {
      System.arraycopy(bytes(i), 0, data, i * width, bytes(i).length)
      i += 1
    }
    Profile.rec("strFrom", Materialize, values.length, data.length.toLong)
    StringTensor(data, width, values.length)
  }

  private def pad(s: String, width: Int): Array[Byte] = {
    val b   = s.getBytes(java.nio.charset.StandardCharsets.UTF_8)
    val out = new Array[Byte](width)
    System.arraycopy(b, 0, out, 0, math.min(b.length, width))
    out
  }

  /** Row-wise equality with a constant (e.g. `o_orderstatus = 'F'`, §5.1). */
  def eqConst(t: StringTensor, lit: String): BoolTensor = {
    val out = new Array[Boolean](t.n)
    if (lit.length > t.width) {
      // Literal longer than any stored value: never equal.
      Profile.rec("strEq", ElementWise, t.n, t.n.toLong)
      return BoolTensor(out)
    }
    val p = pad(lit, t.width)
    ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
      var i = s; while (i < e) { out(i) = t.cmpRow(i, p) == 0; i += 1 }
    }
    Profile.rec("strEq", ElementWise, t.n, t.n.toLong * t.width)
    BoolTensor(out)
  }

  def cmpConst(t: StringTensor, lit: String, op: (Int, Int) => Boolean): BoolTensor = {
    val p   = pad(lit, math.max(t.width, lit.length))
    val out = new Array[Boolean](t.n)
    if (lit.length > t.width) {
      // Compare against the literal truncated to width, breaking ties as
      // "row is shorter" (< 0) — correct because rows are 0-padded.
      val pt = java.util.Arrays.copyOf(p, t.width)
      ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
        var i = s
        while (i < e) {
          val c0 = t.cmpRow(i, pt)
          out(i) = op(if (c0 != 0) c0 else -1, 0)
          i += 1
        }
      }
    } else {
      ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
        var i = s; while (i < e) { out(i) = op(t.cmpRow(i, p), 0); i += 1 }
      }
    }
    Profile.rec("strCmp", ElementWise, t.n, t.n.toLong * t.width)
    BoolTensor(out)
  }

  /** Row-wise equality between two string tensors of equal length. */
  def eqCols(a: StringTensor, b: StringTensor): BoolTensor = {
    require(a.n == b.n, "eqCols: length mismatch")
    val out = new Array[Boolean](a.n)
    ExecCtx.current.device.parallelRanges(a.n) { (s, e) =>
      var i = s
      while (i < e) { out(i) = a.rowString(i) == b.rowString(i); i += 1 }
    }
    Profile.rec("strEq", ElementWise, a.n, a.n.toLong * (a.width + b.width))
    BoolTensor(out)
  }

  def startsWith(t: StringTensor, prefix: String): BoolTensor = {
    val p   = prefix.getBytes(java.nio.charset.StandardCharsets.UTF_8)
    val out = new Array[Boolean](t.n)
    ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
      var i = s
      while (i < e) {
        out(i) = p.length <= t.width && {
          val base = i * t.width
          var k = 0
          var ok = true
          while (ok && k < p.length) { ok = t.data(base + k) == p(k); k += 1 }
          ok
        }
        i += 1
      }
    }
    Profile.rec("strStartsWith", ElementWise, t.n, t.n.toLong * p.length)
    BoolTensor(out)
  }

  def endsWith(t: StringTensor, suffix: String): BoolTensor = {
    val p   = suffix.getBytes(java.nio.charset.StandardCharsets.UTF_8)
    val out = new Array[Boolean](t.n)
    ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
      var i = s
      while (i < e) {
        val base = i * t.width
        var len = t.width
        while (len > 0 && t.data(base + len - 1) == 0) len -= 1
        out(i) = p.length <= len && {
          var k = 0
          var ok = true
          while (ok && k < p.length) { ok = t.data(base + len - p.length + k) == p(k); k += 1 }
          ok
        }
        i += 1
      }
    }
    Profile.rec("strEndsWith", ElementWise, t.n, t.n.toLong * t.width)
    BoolTensor(out)
  }

  def contains(t: StringTensor, needle: String): BoolTensor = {
    val p   = needle.getBytes(java.nio.charset.StandardCharsets.UTF_8)
    val out = new Array[Boolean](t.n)
    ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
      var i = s
      while (i < e) { out(i) = indexOfFrom(t, i, p, 0) >= 0; i += 1 }
    }
    Profile.rec("strContains", ElementWise, t.n, t.n.toLong * t.width)
    BoolTensor(out)
  }

  /** SQL LIKE with `%` and `_` wildcards, compiled to a segment matcher and
    * evaluated as a string kernel over the padded matrix (the paper's LIKE
    * support, §5).
    */
  def like(t: StringTensor, pattern: String): BoolTensor = {
    val segs        = pattern.split("%", -1)
    val anchoredHead = !pattern.startsWith("%")
    val anchoredTail = !pattern.endsWith("%")
    val out = new Array[Boolean](t.n)
    ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
      var i = s
      while (i < e) { out(i) = likeRow(t, i, segs, anchoredHead, anchoredTail); i += 1 }
    }
    Profile.rec("strLike", ElementWise, t.n, t.n.toLong * t.width)
    BoolTensor(out)
  }

  private def rowLen(t: StringTensor, i: Int): Int = {
    val base = i * t.width
    var len = t.width
    while (len > 0 && t.data(base + len - 1) == 0) len -= 1
    len
  }

  /** indexOf over row i for `needle` starting at `from`; `_`-free bytes. */
  private def indexOfFrom(t: StringTensor, i: Int, needle: Array[Byte], from: Int): Int = {
    val len  = rowLen(t, i)
    val base = i * t.width
    if (needle.isEmpty) return math.min(from, len)
    var p = from
    while (p + needle.length <= len) {
      var k = 0
      var ok = true
      while (ok && k < needle.length) {
        val c = needle(k)
        // '_' (0x5f) as single-char wildcard inside segments
        ok = c == '_' || t.data(base + p + k) == c
        k += 1
      }
      if (ok) return p
      p += 1
    }
    -1
  }

  private def likeRow(t: StringTensor, i: Int, segs: Array[String],
                      anchoredHead: Boolean, anchoredTail: Boolean): Boolean = {
    val len = rowLen(t, i)
    // Wildcard-free pattern: exact match (with `_` holes) of the full row.
    if (segs.length == 1 && anchoredHead && anchoredTail) {
      val seg = segs(0).getBytes(java.nio.charset.StandardCharsets.UTF_8)
      return len == seg.length && indexOfFrom(t, i, seg, 0) == 0
    }
    var pos = 0
    var si  = 0
    while (si < segs.length) {
      val seg = segs(si).getBytes(java.nio.charset.StandardCharsets.UTF_8)
      if (seg.nonEmpty) {
        if (si == 0 && anchoredHead) {
          if (indexOfFrom(t, i, seg, 0) != 0) return false
          pos = seg.length
        } else if (si == segs.length - 1 && anchoredTail) {
          val want = len - seg.length
          if (want < pos) return false
          val at = indexOfFrom(t, i, seg, want)
          if (at != want) return false
          pos = len
        } else {
          val at = indexOfFrom(t, i, seg, pos)
          if (at < 0) return false
          pos = at + seg.length
        }
      }
      si += 1
    }
    true
  }

  /** `substring(s, start1, len)` (SQL 1-based) as a narrower string tensor. */
  def substring(t: StringTensor, start1: Int, len: Int): StringTensor = {
    val w    = math.max(0, len)
    val out  = new Array[Byte](w * t.n)
    val off  = start1 - 1
    ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
      var i = s
      while (i < e) {
        val rl   = rowLen(t, i)
        val from = math.min(math.max(off, 0), rl)
        val cnt  = math.min(w, rl - from)
        if (cnt > 0) System.arraycopy(t.data, i * t.width + from, out, i * w, cnt)
        i += 1
      }
    }
    Profile.rec("strSubstr", ElementWise, t.n, t.n.toLong * (t.width + w))
    StringTensor(out, w, t.n)
  }

  def indexSelect(t: StringTensor, idx: I64Tensor): StringTensor = {
    val out = new Array[Byte](t.width * idx.length)
    ExecCtx.current.device.parallelRanges(idx.length) { (s, e) =>
      var i = s
      while (i < e) {
        System.arraycopy(t.data, idx.data(i).toInt * t.width, out, i * t.width, t.width)
        i += 1
      }
    }
    Profile.rec("indexSelect", Gather, idx.length, idx.length.toLong * t.width * 2)
    StringTensor(out, t.width, idx.length)
  }

  /** Each row's padded bytes as one big-endian number, for `width <= 8`:
    * signed order on the numbers is unsigned byte order on the rows (at
    * width 8 the sign bit is flipped), and equal numbers are equal rows.
    */
  def packBytes(t: StringTensor): I64Tensor = {
    val w = t.width
    require(w <= 8, s"packBytes: width $w > 8")
    val flip = if (w == 8) Long.MinValue else 0L
    val out  = new Array[Long](t.n)
    ExecCtx.current.device.parallelRanges(t.n) { (s, e) =>
      var i = s
      while (i < e) {
        var acc = 0L
        var k = i * w
        val end = k + w
        while (k < end) { acc = (acc << 8) | (t.data(k) & 0xffL); k += 1 }
        out(i) = acc ^ flip
        i += 1
      }
    }
    Profile.rec("strPack", ElementWise, t.n, t.n.toLong * (w + 8))
    I64Tensor(out)
  }

  /** Dictionary-encode: codes are ranks in unsigned byte order (the order
    * of `packBytes` and the string comparison kernels), so sorting/grouping
    * on codes equals sorting/grouping on the strings. Returns
    * (codes, sorted distinct values).
    */
  def dictEncode(t: StringTensor): (I64Tensor, Array[String]) = {
    // Phase 1: hash pass assigning first-seen ids (cheap for the common
    // low-cardinality group keys). Phase 2: sort the small dictionary and
    // remap ids to lexicographic ranks.
    val firstSeen = new java.util.HashMap[String, Integer]()
    val tmp = new Array[Int](t.n)
    val dictB = scala.collection.mutable.ArrayBuffer[String]()
    var i = 0
    while (i < t.n) {
      val s = t.rowString(i)
      var id = firstSeen.get(s)
      if (id == null) {
        id = Integer.valueOf(dictB.length)
        firstSeen.put(s, id)
        dictB += s
      }
      tmp(i) = id.intValue
      i += 1
    }
    val bytes  = dictB.map(_.getBytes(java.nio.charset.StandardCharsets.UTF_8))
    val order  = dictB.indices.sortWith((a, b) => java.util.Arrays.compareUnsigned(bytes(a), bytes(b)) < 0).toArray
    val rankOf = new Array[Long](dictB.length)
    var r = 0
    while (r < order.length) { rankOf(order(r)) = r; r += 1 }
    val codes = new Array[Long](t.n)
    i = 0
    while (i < t.n) { codes(i) = rankOf(tmp(i)); i += 1 }
    Profile.rec("strDictEncode", Sort, t.n, t.n.toLong * t.width * 2)
    (I64Tensor(codes), order.map(dictB(_)))
  }

  def cat(a: StringTensor, b: StringTensor): StringTensor = {
    val w   = math.max(a.width, b.width)
    val out = new Array[Byte](w * (a.n + b.n))
    var i = 0
    while (i < a.n) { System.arraycopy(a.data, i * a.width, out, i * w, a.width); i += 1 }
    i = 0
    while (i < b.n) { System.arraycopy(b.data, i * b.width, out, (a.n + i) * w, b.width); i += 1 }
    Profile.rec("cat", Materialize, a.n + b.n, (a.n + b.n).toLong * w * 2)
    StringTensor(out, w, a.n + b.n)
  }
}
