package repro.tcbench

import repro.core._
import repro.index.{TCNode, TCTree}

/** Time and size tallies of the kernel calls one replay makes. Index 0 of
  * the split arrays is layer 1 (single-item patterns), index 1 the deeper
  * levels.
  */
final class KernelTally {
  private var freqCalls, induceNs, edgesIn, edgesKept = 0L
  private var peelCalls, peelInSum, peelInMaxEdges, peelOutSum = 0L
  private val freqNs = Array(0L, 0L)
  private val peelNs = Array(0L, 0L)

  /** Induces the theme network of `p` within `within` and peels it, timing
    * `CompactNetwork.freq` (through `MinerOps.freqFn`), `themeInduce` and
    * `peel` separately. The frequency pass asks for exactly the vertices
    * `themeInduce` asks for, so the later calls only hit the memo.
    */
  def run[R](net: CompactNetwork, p: Vector[Int], within: Iterable[(Int, Int)])
            (peel: (Vector[(Int, Int)], Int => Double) => R)(edgesOut: R => Int): R = {
    val split = if (p.length == 1) 0 else 1
    val f = MinerOps.freqFn(net, p)
    var t0 = System.nanoTime()
    within.foreach { case (u, v) => if (f(u) > 0.0) f(v) }
    freqNs(split) += System.nanoTime() - t0

    val asked = new java.util.BitSet(net.n)
    within.foreach { case (u, v) => asked.set(u); if (f(u) > 0.0) asked.set(v) }
    freqCalls += asked.cardinality()

    t0 = System.nanoTime()
    val g = LocalTruss.themeInduce(within, f)
    induceNs += System.nanoTime() - t0
    edgesIn += within.size
    edgesKept += g.length

    t0 = System.nanoTime()
    val r = peel(g, f)
    peelNs(split) += System.nanoTime() - t0
    peelCalls += 1
    peelInSum += g.length
    peelInMaxEdges = math.max(peelInMaxEdges, g.length.toLong)
    peelOutSum += edgesOut(r)
    r
  }

  def induceInMean: Double = ratio(edgesIn, peelCalls)
  def peelInMean: Double = ratio(peelInSum, peelCalls)
  def peelInMax: Long = peelInMaxEdges

  def record(m: Metrics, op: String): Unit = {
    m(s"model.freq_calls.$op") = (freqCalls.toDouble, "count")
    m(s"model.freq_s.$op.l1") = (freqNs(0) / 1e9, "s")
    m(s"model.freq_s.$op.deep") = (freqNs(1) / 1e9, "s")
    m(s"localtruss.induce_s.$op") = (induceNs / 1e9, "s")
    m(s"localtruss.induce_edges_in.$op") = (edgesIn.toDouble, "count")
    m(s"localtruss.induce_edges_kept.$op") = (edgesKept.toDouble, "count")
    m(s"localtruss.induce_yield.$op") = (ratio(edgesKept, edgesIn), "ratio")
    m(s"localtruss.peel_calls.$op") = (peelCalls.toDouble, "count")
    m(s"localtruss.peel_s.$op.l1") = (peelNs(0) / 1e9, "s")
    m(s"localtruss.peel_s.$op.deep") = (peelNs(1) / 1e9, "s")
    m(s"localtruss.peel_edges_in_sum.$op") = (peelInSum.toDouble, "count")
    m(s"localtruss.peel_edges_in_max.$op") = (peelInMaxEdges.toDouble, "count")
    m(s"localtruss.peel_edges_out_sum.$op") = (peelOutSum.toDouble, "count")
  }

  private def ratio(a: Long, b: Long): Double = if (b == 0) 0.0 else a.toDouble / b
}

/** Sequential replays of the miners and the TC-Tree build on the driver,
  * rebuilt from a run's own outputs and timed call by call. Each replayed
  * result is also compared with the output it was rebuilt from.
  */
object Replay {

  final case class Mismatches(checked: Long, failed: Long)

  final case class MinerReplay(
      tally: KernelTally, levels: Int, candidates: Long, mptdCalls: Long, pruned: Long,
      joinS: Double, intersectS: Double, ccS: Double, atMaxLen: Long, check: Mismatches)

  /** Replays TCFI (`useIntersection`) or TCFA: level 1 peels every item's
    * theme network, and each deeper level joins the previous level's
    * qualified patterns of `result` with `Pattern.aprioriJoin`.
    */
  def miner(net: CompactNetwork, result: MiningResult, alpha: Double, maxLen: Int,
            useIntersection: Boolean): MinerReplay = {
    val tally = new KernelTally
    val byLen = result.trusses.groupBy(_._1.length)
    val fullEdges: Iterable[(Int, Int)] = net.edgeList.toIndexedSeq
    var checked, failed, found = 0L
    def check(p: Vector[Int], t: Truss): Unit = {
      checked += 1
      if (!t.isEmpty) found += 1
      val ok = result.trusses.get(p) match {
        case Some(r) => r.edges == t.edges
        case None => t.isEmpty
      }
      if (!ok) failed += 1
    }
    def peel(p: Vector[Int], within: Iterable[(Int, Int)]): Truss =
      tally.run(net, p, within)(LocalTruss.mptd(_, _, alpha))(_.nEdges)

    net.items.foreach(s => check(Vector(s), peel(Vector(s), fullEdges)))
    var levels = 1
    var candidates = net.items.length.toLong
    var mptdCalls = candidates
    var pruned = 0L
    var joinNs, intersectNs = 0L
    var k = 1
    while (k < maxLen && byLen.contains(k)) {
      val qualified = byLen(k)
      var t0 = System.nanoTime()
      val cands = Pattern.aprioriJoin(qualified.keys.toSeq)
      joinNs += System.nanoTime() - t0
      candidates += cands.length
      levels += 1
      for ((p, (pa, pb)) <- cands) {
        val within: Iterable[(Int, Int)] =
          if (!useIntersection) fullEdges
          else {
            t0 = System.nanoTime()
            val w = qualified(pa).intersectEdges(qualified(pb))
            intersectNs += System.nanoTime() - t0
            w
          }
        if (within.isEmpty) { pruned += 1; check(p, Truss.empty) }
        else { mptdCalls += 1; check(p, peel(p, within)) }
      }
      k += 1
    }
    checked += 3
    if (found != result.np) failed += 1
    if (mptdCalls != result.stats.mptdCalls || candidates != result.stats.candidates) failed += 1
    if (pruned != result.stats.prunedByIntersection) failed += 1

    val t0 = System.nanoTime()
    result.trusses.valuesIterator.foreach(t => LocalTruss.connectedComponents(t.edges))
    val ccS = Clock.secondsSince(t0)
    val atMaxLen = result.trusses.keysIterator.count(_.length == maxLen).toLong
    MinerReplay(tally, levels, candidates, mptdCalls, pruned, joinNs / 1e9, intersectNs / 1e9,
                ccS, atMaxLen, Mismatches(checked, failed))
  }

  final case class TreeReplay(
      tally: KernelTally, siblingPairs: Long, tasksShipped: Long, edgesShipped: Long,
      intersectS: Double, check: Mismatches)

  def sameDecomposition(a: Decomposition, b: Decomposition): Boolean =
    a.nodes.length == b.nodes.length && a.nodes.zip(b.nodes).forall { case ((x, ex), (y, ey)) =>
      math.abs(x - y) <= LocalTruss.Eps && ex == ey
    }

  /** Replays `TCTree.build`: layer 1 decomposes every item's theme network
    * in the full edge list, and each sibling pair of a stored level is
    * intersected with `Truss.intersectEdges` on the pair's `trussAt(0)`
    * edges and decomposed within the intersection.
    */
  def tree(net: CompactNetwork, tree: TCTree, maxDepth: Int): TreeReplay = {
    val tally = new KernelTally
    var checked, failed, found = 0L
    def compare(d: Decomposition, stored: Option[TCNode]): Unit = {
      checked += 1
      if (!d.isEmpty) found += 1
      val ok = stored match {
        case Some(n) => sameDecomposition(n.decomp, d)
        case None => d.isEmpty
      }
      if (!ok) failed += 1
    }
    def decompose(p: Vector[Int], within: Iterable[(Int, Int)]): Decomposition =
      tally.run(net, p, within)(LocalTruss.decompose)(_.nEdgesTotal)

    val layer1 = tree.root.children.iterator.map(c => c.item -> c).toMap
    val fullEdges: Iterable[(Int, Int)] = net.edgeList.toIndexedSeq
    net.items.foreach(s => compare(decompose(Vector(s), fullEdges), layer1.get(s)))
    var pairs, shipped, edgesShipped, intersectNs = 0L
    var parents = Vector(tree.root)
    var depth = 1
    while (parents.nonEmpty && depth < maxDepth) {
      for (parent <- parents if parent.children.nonEmpty) {
        val sib = parent.children.sortBy(_.item).toVector
        val trusses = sib.map { n =>
          val es = n.trussAt(0.0)
          Truss(es, es.iterator.map(e => LocalTruss.ekey(e._1, e._2) -> 0.0).toMap)
        }
        for (i <- sib.indices) {
          val stored = sib(i).children.iterator.map(c => c.item -> c).toMap
          for (j <- (i + 1) until sib.length) {
            pairs += 1
            val t0 = System.nanoTime()
            val inter = trusses(i).intersectEdges(trusses(j))
            intersectNs += System.nanoTime() - t0
            if (inter.nonEmpty) {
              shipped += 1
              edgesShipped += inter.length
              compare(decompose(sib(i).pattern :+ sib(j).item, inter), stored.get(sib(j).item))
            }
          }
        }
      }
      parents = parents.flatMap(_.children)
      depth += 1
    }
    checked += 1
    if (found != tree.nNodes) failed += 1
    TreeReplay(tally, pairs, shipped, edgesShipped, intersectNs / 1e9, Mismatches(checked, failed))
  }
}
