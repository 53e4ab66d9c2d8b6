package repro.tensor

/** Stable LSD radix argsort for 64-bit keys.
  *
  * The paper's aggregation sorts concatenated group keys with radix sort
  * (§5.4); PyTorch's CPU sort is likewise single-threaded — we keep that
  * property so the reproduction exhibits the same multi-core scaling wall.
  *
  * Keys are mapped to an unsigned-comparable domain (sign-bit flip), then
  * sorted with 8-bit digits, skipping passes whose digit is constant. Doubles
  * are sorted as `KeyEncoder.toOrderedI64` longs.
  */
object RadixSort {

  /** Argsort signed longs; stable; ascending unless `descending`. */
  def argsortLong(keys: Array[Long], descending: Boolean): Array[Long] = {
    val n = keys.length
    val u = new Array[Long](n)
    var i = 0
    if (descending) {
      while (i < n) { u(i) = ~(keys(i) ^ Long.MinValue); i += 1 }
    } else {
      while (i < n) { u(i) = keys(i) ^ Long.MinValue; i += 1 }
    }
    argsortUnsigned(u)
  }

  /** Stable ascending argsort over unsigned-comparable longs. */
  private def argsortUnsigned(u: Array[Long]): Array[Long] = {
    val n = u.length
    var perm = new Array[Long](n)
    var tmp  = new Array[Long](n)
    var i = 0
    while (i < n) { perm(i) = i; i += 1 }
    if (n <= 1) return perm

    val counts = new Array[Int](256)
    var shift = 0
    while (shift < 64) {
      java.util.Arrays.fill(counts, 0)
      i = 0
      while (i < n) { counts(((u(perm(i).toInt) >>> shift) & 0xff).toInt) += 1; i += 1 }
      // Skip passes where every key shares the digit.
      var constant = false
      var d = 0
      while (d < 256) { if (counts(d) == n) { constant = true; d = 256 } else d += 1 }
      if (!constant) {
        var acc = 0; d = 0
        while (d < 256) { val c = counts(d); counts(d) = acc; acc += c; d += 1 }
        i = 0
        while (i < n) {
          val p   = perm(i)
          val dig = ((u(p.toInt) >>> shift) & 0xff).toInt
          tmp(counts(dig)) = p
          counts(dig) += 1
          i += 1
        }
        val sw = perm; perm = tmp; tmp = sw
      }
      shift += 8
    }
    perm
  }
}
