package repro.core

/** Table 2 row: the five statistics the paper reports per dataset. */
final case class NetworkStats(
    nVertices: Long,
    nEdges: Long,
    nTransactions: Long,
    nItemsTotal: Long,
    nItemsUnique: Long,
)

/** A database network G = (V, E, D, S) held driver-side, broadcast to the
  * miners' tasks.
  *
  * Holds sorted adjacency arrays and, per vertex, the transaction list plus
  * a tid-list index item → sorted tx indices (a `Map[Int, Array[Int]]` per
  * vertex), so that f_i(p) = |∩_{s∈p} txIdx(i)(s)| / |d_i| is an
  * intersection of sorted int arrays — the hot loop of every miner. TCS's
  * per-vertex candidate search walks the same tid-lists.
  *
  * Built only through `CompactNetwork.apply`, which validates the input.
  */
final class CompactNetwork private (
    val adj: Array[Array[Int]],
    val txs: Array[Array[Array[Int]]],
) extends Serializable {

  val n: Int = adj.length

  /** Canonical (src<dst) edge list. */
  lazy val edgeList: Array[(Int, Int)] =
    (for { u <- adj.indices.iterator; v <- adj(u).iterator if u < v } yield (u, v)).toArray

  def nEdges: Int = edgeList.length

  /** item → sorted array of transaction indices, per vertex. */
  lazy val txIndex: Array[Map[Int, Array[Int]]] = txs.map { db =>
    val m = scala.collection.mutable.Map.empty[Int, scala.collection.mutable.ArrayBuffer[Int]]
    for ((t, ti) <- db.zipWithIndex; item <- t)
      m.getOrElseUpdate(item, scala.collection.mutable.ArrayBuffer.empty[Int]) += ti
    m.iterator.map { case (k, v) => (k, v.toArray) }.toMap
  }

  /** All distinct items in S (those appearing in at least one transaction). */
  lazy val items: Array[Int] =
    txs.iterator.flatMap(_.iterator.flatMap(_.iterator)).toArray.distinct.sorted

  /** Table 2 statistics. Every transaction counts, an empty one included. */
  def stats: NetworkStats = NetworkStats(
    n.toLong,
    nEdges.toLong,
    txs.iterator.map(_.length.toLong).sum,
    txs.iterator.flatMap(_.iterator).map(_.length.toLong).sum,
    items.length.toLong,
  )

  /** |∩ lists| for a non-empty `lists`, starting from the shortest. */
  private def intersectSize(lists: Seq[Array[Int]]): Int = {
    var acc = lists.minBy(_.length)
    for (l <- lists if !(l eq acc) && acc.nonEmpty) acc = CompactNetwork.intersect(acc, l)
    acc.length
  }

  /** Frequency f_v(p): fraction of v's transactions containing pattern p.
    * f_v(∅) = 1 when v has at least one transaction (every transaction
    * contains the empty pattern), 0 for a vertex with an empty database.
    */
  def freq(v: Int, p: Vector[Int]): Double = {
    val db = txs(v)
    if (db.isEmpty) return 0.0
    if (p.isEmpty) return 1.0
    val idx = txIndex(v)
    val lists = p.map(idx.getOrElse(_, null))
    if (lists.exists(_ == null)) 0.0
    else intersectSize(lists).toDouble / db.length
  }

  /** Frequencies of p on every vertex, as a dense array. */
  def freqAll(p: Vector[Int]): Array[Double] =
    Array.tabulate(n)(freq(_, p))
}

object CompactNetwork {

  /** Validates a database network and builds its compact view.
    *
    * @param n     number of vertices; ids are 0 until n
    * @param edges undirected edges in either orientation; repeats are merged
    * @param txs   txs(v) is the transaction database of v, a multi-set:
    *              repeated transactions are kept, repeated items within one
    *              transaction are merged
    * @throws IllegalArgumentException if an endpoint lies outside [0, n), an
    *         edge is a self-loop, or `txs` does not hold exactly n databases
    */
  def apply(n: Int, edges: Iterable[(Int, Int)], txs: IndexedSeq[Iterable[Iterable[Int]]]): CompactNetwork = {
    require(txs.length == n, s"txs has ${txs.length} databases for $n vertices")
    val adj = Array.fill(n)(Array.newBuilder[Int])
    for ((u, v) <- edges) {
      require(0 <= u && u < n && 0 <= v && v < n, s"edge ($u,$v) has an endpoint outside [0, $n)")
      require(u != v, s"self-loop at vertex $u")
      adj(u) += v; adj(v) += u
    }
    new CompactNetwork(
      adj.map(b => sortedDistinct(b.result())),
      txs.iterator.map(_.iterator.map(t => sortedDistinct(t.toArray)).toArray).toArray,
    )
  }

  /** The values common to two sorted, duplicate-free arrays, sorted: a
    * merge in O(|a| + |b|).
    */
  private[core] def intersect(a: Array[Int], b: Array[Int]): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0; var j = 0
    while (i < a.length && j < b.length) {
      if (a(i) == b(j)) { out += a(i); i += 1; j += 1 }
      else if (a(i) < b(j)) i += 1
      else j += 1
    }
    out.result()
  }

  /** Sorts `a` in place and returns its distinct values. */
  private def sortedDistinct(a: Array[Int]): Array[Int] = {
    java.util.Arrays.sort(a)
    var k = 0
    for (i <- a.indices if i == 0 || a(i) != a(i - 1)) { a(k) = a(i); k += 1 }
    if (k == a.length) a else java.util.Arrays.copyOf(a, k)
  }
}
