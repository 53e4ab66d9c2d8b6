package repro.tensor

/** Stable radix argsort for 64-bit keys.
  *
  * The paper's sort join (Algorithm 1) and sort-based aggregation (§5.4)
  * both rest on a radix sort; PyTorch's CPU sort is likewise single-threaded
  * — we keep that property so the reproduction exhibits the same multi-core
  * scaling wall. Doubles are sorted as `KeyEncoder.toOrderedI64` longs.
  *
  * One pass finds the key range `[min, max]`; every later pass works on
  * `v - min`, so only the range's significant bits are sorted:
  *
  *  - a range below `max(2^16, 4n)` (dense codes, few distinct values) takes
  *    one counting sort: a histogram of `v - min`, its exclusive prefix sum,
  *    then each row `i` in input order goes to the next free slot of its key;
  *  - a wider range takes an LSD sort with `ceil(bits / 11)` digits of at most
  *    11 bits that moves (key, `Int` index) pairs together, so no pass reads a
  *    key through the permutation. All digit histograms are built in the pass
  *    that fills the pairs, and a digit every key shares is skipped.
  *
  * Both paths are stable because every scatter walks its input front to back
  * and hands out each bucket's slots in increasing order, so equal keys (and,
  * in the LSD sort, equal digits) keep the order of the pass before.
  */
object RadixSort {

  /** Widest LSD digit, in bits; each pass's histogram has `2^DigitBits` slots. */
  private final val DigitBits = 11

  /** A range below this many keys, or below `4n`, takes the counting sort. */
  private final val CountingMin = 1 << 16

  /** Argsort signed longs; stable; ascending unless `descending`. */
  def argsortLong(keys: Array[Long], descending: Boolean): Array[Long] = {
    val n = keys.length
    // `~x` reverses signed order, so descending is an ascending sort of `~x`.
    val flip = if (descending) -1L else 0L
    var min = Long.MaxValue
    var max = Long.MinValue
    var i = 0
    while (i < n) {
      val v = keys(i) ^ flip
      if (v < min) min = v
      if (v > max) max = v
      i += 1
    }
    // Unsigned width of the range: `max - min` wraps negative past 2^63 - 1,
    // and `v - min` is still the right unsigned offset then.
    val range = max - min
    if (n <= 1 || range == 0) {
      val perm = new Array[Long](n)
      i = 0
      while (i < n) { perm(i) = i; i += 1 }
      perm
    } else if (range > 0 && range < math.min(math.max(CountingMin.toLong, 4L * n), Int.MaxValue.toLong))
      countingSort(keys, flip, min, range.toInt + 1)
    else lsdSort(keys, flip, min, 64 - java.lang.Long.numberOfLeadingZeros(range))
  }

  /** One stable counting pass over `v - min` in `[0, buckets)`. */
  private def countingSort(keys: Array[Long], flip: Long, min: Long, buckets: Int): Array[Long] = {
    val n = keys.length
    val counts = new Array[Int](buckets)
    var i = 0
    while (i < n) { counts(((keys(i) ^ flip) - min).toInt) += 1; i += 1 }
    var acc = 0
    var b = 0
    while (b < buckets) { val c = counts(b); counts(b) = acc; acc += c; b += 1 }
    val perm = new Array[Long](n)
    i = 0
    while (i < n) {
      val r = ((keys(i) ^ flip) - min).toInt
      perm(counts(r)) = i
      counts(r) += 1
      i += 1
    }
    perm
  }

  /** LSD sort of (`v - min`, index) pairs over the low `bits` bits. */
  private def lsdSort(keys: Array[Long], flip: Long, min: Long, bits: Int): Array[Long] = {
    val n = keys.length
    val passes = (bits + DigitBits - 1) / DigitBits
    val w = (bits + passes - 1) / passes
    val mask = (1L << w) - 1
    val hist = new Array[Int](passes << DigitBits)
    var ka = new Array[Long](n)
    var ia = new Array[Int](n)
    var i = 0
    while (i < n) {
      val k = (keys(i) ^ flip) - min
      ka(i) = k
      ia(i) = i
      var p = 0
      while (p < passes) { hist((p << DigitBits) + ((k >>> (p * w)) & mask).toInt) += 1; p += 1 }
      i += 1
    }
    var kb = new Array[Long](n)
    var ib = new Array[Int](n)
    var p = 0
    while (p < passes) {
      val off = p << DigitBits
      val shift = p * w
      // Skip a digit every key shares: the pass would copy the pairs unchanged.
      if (hist(off + ((ka(0) >>> shift) & mask).toInt) != n) {
        var acc = 0
        var d = off
        while (d < off + (1 << w)) { val c = hist(d); hist(d) = acc; acc += c; d += 1 }
        i = 0
        while (i < n) {
          val k = ka(i)
          val b = off + ((k >>> shift) & mask).toInt
          val pos = hist(b)
          kb(pos) = k
          ib(pos) = ia(i)
          hist(b) = pos + 1
          i += 1
        }
        val sk = ka; ka = kb; kb = sk
        val si = ia; ia = ib; ib = si
      }
      p += 1
    }
    val perm = new Array[Long](n)
    i = 0
    while (i < n) { perm(i) = ia(i); i += 1 }
    perm
  }
}
