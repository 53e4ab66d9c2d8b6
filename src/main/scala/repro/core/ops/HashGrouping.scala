package repro.core.ops

import repro.tensor._

/** Hash-based grouping — the algorithmic alternative to Algorithm 3's sort
  * used by OmnisciDB-style engines (the paper attributes OmnisciDB's Q1/Q9
  * GPU wins to hash-based aggregation, §6.6). Produces the same
  * [[KeyEncoder.Groups]] structure as the sort path — a group id per input
  * row — so [[AggregateOp]] is agnostic to the grouping algorithm.
  *
  * Implementation: open-addressing table over packed keys (linear probing);
  * group ids are assigned in order of first appearance, so each group's
  * representative is its first row. Keys that cannot be packed fall back to
  * the sort path.
  */
object HashGrouping {

  def groupsOf(keyCols: Seq[I64Tensor]): KeyEncoder.Groups = {
    val n = keyCols.headOption.map(_.length).getOrElse(0)
    if (n == 0) return KeyEncoder.groupsOf(keyCols)
    KeyEncoder.packColumns(keyCols) match {
      case None         => KeyEncoder.groupsOf(keyCols) // unpackable: sort path
      case Some(packed) => fromPacked(packed)
    }
  }

  private def fromPacked(packed: I64Tensor): KeyEncoder.Groups = {
    val n = packed.length
    val m = Integer.highestOneBit(math.max(16, n * 2 - 1)) * 2
    val tableKey = new Array[Long](m)
    val tableGid = new Array[Int](m)
    java.util.Arrays.fill(tableGid, -1)

    val gid = new Array[Long](n) // group id per original row
    var nGroups = 0
    val repB = new scala.collection.mutable.ArrayBuffer[Long]()
    var i = 0
    while (i < n) {
      val k = packed.data(i)
      var slot = (java.lang.Long.hashCode(k * -7046029254386353131L) & (m - 1))
      var done = false
      while (!done) {
        val g = tableGid(slot)
        if (g < 0) {
          tableKey(slot) = k
          tableGid(slot) = nGroups
          gid(i) = nGroups
          repB += i.toLong
          nGroups += 1
          done = true
        } else if (tableKey(slot) == k) {
          gid(i) = g
          done = true
        } else {
          slot = (slot + 1) & (m - 1)
        }
      }
      i += 1
    }
    Profile.rec("hashGroup", OpClass.Scatter, n, n * 24L)
    KeyEncoder.Groups(I64Tensor(gid), nGroups, I64Tensor(repB.toArray))
  }
}
