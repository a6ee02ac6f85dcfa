package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession

/** Counters reported by the paper's efficiency study (Section 7):
  * `mptdCalls` is the number of MPTD invocations (Figure 3 discussion),
  * `candidates` the number of candidate patterns examined, and
  * `prunedByIntersection` the TCFI candidates discarded because the parent
  * trusses' intersection was empty (no MPTD run). `truncated` is true when
  * the run stopped at its `maxLen` cap while patterns of that length still
  * qualified, so longer qualified patterns may be missing from the result.
  */
final case class MinerStats(
    mptdCalls: Long,
    candidates: Long,
    prunedByIntersection: Long,
    timeMs: Long,
    truncated: Boolean,
)

/** Result of a miner run: every non-empty maximal pattern truss keyed by its
  * pattern, plus the run counters. NP/NV/NE follow the paper's metrics: NP is
  * the number of maximal pattern trusses; NV (NE) counts a vertex (edge) once
  * per truss containing it.
  */
final case class MiningResult(trusses: Map[Vector[Int], Truss], stats: MinerStats) {
  def np: Long = trusses.size.toLong
  def nv: Long = trusses.valuesIterator.map(_.nVertices.toLong).sum
  def ne: Long = trusses.valuesIterator.map(_.nEdges.toLong).sum

  /** All theme communities: (pattern, member vertex set) per maximal
    * connected subgraph of each truss (Definition 3.5).
    */
  def communities: Seq[(Vector[Int], Set[Int])] =
    trusses.toSeq.sortBy(kv => Pattern.key(kv._1)).flatMap { case (p, t) =>
      LocalTruss.connectedComponents(t.edges).map(c => (p, c))
    }
}

private[repro] object MinerOps {

  /** Memoising frequency function for one pattern. */
  def freqFn(net: CompactNetwork, p: Vector[Int]): Int => Double = {
    val cache = new java.util.HashMap[Integer, java.lang.Double]()
    v => cache.computeIfAbsent(v, _ => net.freq(v, p)).doubleValue()
  }

  def slices(spark: SparkSession, nTasks: Int): Int =
    math.max(1, math.min(nTasks, spark.sparkContext.defaultParallelism * 2))
}

/** Theme Community Scanner (Section 4.2) — the baseline. Enumerates, per
  * vertex database, every pattern with frequency > ε (distributed over
  * vertices), then runs MPTD on each candidate's theme network (distributed
  * over patterns). Trades accuracy for speed: a pattern below ε on every
  * vertex is never examined even if it forms a dense truss.
  */
object TCS {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double, eps: Double,
          maxLen: Int = 6): MiningResult = {
    require(alpha >= 0.0, s"alpha must be >= 0, got $alpha")
    require(eps >= 0.0, s"eps must be >= 0, got $eps")
    require(maxLen >= 1, s"maxLen must be >= 1, got $maxLen")
    val t0 = System.nanoTime()
    val sc = spark.sparkContext
    val bc = sc.broadcast(net)
    val candidates = sc
      .parallelize(0 until net.n, MinerOps.slices(spark, net.n))
      .flatMap(v => localFrequentPatterns(bc.value, v, eps, maxLen))
      .distinct()
      .collect()
    val found = Levelwise.job(spark, bc, candidates.toIndexedSeq.map(p => (p, None)))(
      LocalTruss.mptd(_, _, alpha))(_.edges)
    bc.destroy()
    val ms = (System.nanoTime() - t0) / 1000000
    MiningResult(found, MinerStats(candidates.length.toLong, candidates.length.toLong, 0L, ms,
                                   truncated = candidates.exists(_.length == maxLen)))
  }

  /** Per-vertex frequent-pattern enumeration, the candidate step: all
    * patterns p with f_v(p) > eps on vertex `v` of `net`, up to `maxLen`
    * items. Depth-first search over sorted items, intersecting the
    * network's tid-lists; the frequency threshold is anti-monotone so
    * pruning is exact.
    */
  private[core] def localFrequentPatterns(net: CompactNetwork, v: Int, eps: Double, maxLen: Int): Vector[Vector[Int]] = {
    val nTx = net.txs(v).length
    val tids = net.txIndex(v)
    val items = tids.keys.toArray.sorted
    val out = Vector.newBuilder[Vector[Int]]
    def dfs(prefix: Vector[Int], prefixTids: Array[Int], startIdx: Int): Unit =
      for (i <- startIdx until items.length) {
        val merged =
          if (prefix.isEmpty) tids(items(i)) else CompactNetwork.intersect(prefixTids, tids(items(i)))
        if (merged.length.toDouble / nTx > eps) {
          val p = prefix :+ items(i)
          out += p
          if (p.length < maxLen) dfs(p, merged, i + 1)
        }
      }
    dfs(Vector.empty, Array.empty, 0)
    out.result()
  }
}

/** Theme Community Finder Apriori (Algorithm 3): the level-wise engine with
  * MPTD at α, each candidate's theme network induced from the *full*
  * database network. Exact.
  */
object TCFA {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double,
          maxLen: Int = 6): MiningResult =
    Levelwise.mine(spark, net, alpha, maxLen, withinParents = false)
}

/** Theme Community Finder Intersection (Section 5.3). Same engine as TCFA,
  * but a candidate p^k = p^{k−1} ∪ q^{k−1} has its theme network induced
  * from C*_{p^{k−1}}(α) ∩ C*_{q^{k−1}}(α) (Proposition 5.3); an empty
  * intersection prunes the candidate without running MPTD. Exact.
  */
object TCFI {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double,
          maxLen: Int = 6): MiningResult =
    Levelwise.mine(spark, net, alpha, maxLen, withinParents = true)
}

/** The level-wise set-enumeration engine of TCFA, TCFI and the TC-Tree build
  * (Algorithms 3 and 4). Level 1 runs the kernel on every item's theme
  * network; level k on the candidates Algorithm 2 joins from level k−1. Its
  * all-subsets check is exact: C*_q = ∅ for a sub-pattern q forces C*_p = ∅
  * (Proposition 5.2). With `withinParents` a candidate's theme network is
  * induced from C*_{pa} ∩ C*_{pb} of its generating pair (Proposition 5.3),
  * intersected before the level's job, and an empty intersection prunes it;
  * without, from the full network. Each level is one Spark job over its candidates.
  */
private[repro] object Levelwise {

  /** `levels(k − 1)` holds the qualified patterns of k items with their
    * kernel results; `stats.mptdCalls` counts kernel calls.
    */
  final case class Run[R](levels: Vector[Map[Vector[Int], R]], stats: MinerStats)

  /** TCFA or TCFI: the engine with MPTD at `alpha`. */
  def mine(spark: SparkSession, net: CompactNetwork, alpha: Double, maxLen: Int,
           withinParents: Boolean): MiningResult = {
    require(alpha >= 0.0, s"alpha must be >= 0, got $alpha")
    require(maxLen >= 1, s"maxLen must be >= 1, got $maxLen")
    val r = run(spark, net, maxLen, withinParents)(LocalTruss.mptd(_, _, alpha))(_.edges)
    MiningResult(r.levels.iterator.flatten.toMap, r.stats)
  }

  /** @param kernel  per-pattern kernel, run on the pattern's theme network
    * @param edgesOf the edges of C*_p in a kernel result; a result with none
    *                does not qualify
    */
  def run[R](spark: SparkSession, net: CompactNetwork, maxLen: Int, withinParents: Boolean)
            (kernel: (Vector[(Int, Int)], Int => Double) => R)
            (edgesOf: R => Vector[(Int, Int)]): Run[R] = {
    val t0 = System.nanoTime()
    val bc = spark.sparkContext.broadcast(net)
    var kernelCalls, nCandidates, pruned = 0L

    def levelJob(tasks: Seq[(Vector[Int], Option[Vector[(Int, Int)]])]): Map[Vector[Int], R] = {
      kernelCalls += tasks.length
      job(spark, bc, tasks)(kernel)(edgesOf)
    }

    nCandidates += net.items.length
    var level = levelJob(net.items.toIndexedSeq.map(s => (Vector(s), None)))
    val levels = Vector.newBuilder[Map[Vector[Int], R]] += level
    var k = 2
    while (level.nonEmpty && k <= maxLen) {
      val cands = Pattern.aprioriJoin(level.keys.toSeq)
      nCandidates += cands.length
      lazy val keys = level.view.mapValues(r => LocalTruss.sortedKeys(edgesOf(r))).toMap
      val tasks = cands.flatMap { case (p, (pa, pb)) =>
        if (!withinParents) Some((p, None))
        else {
          val within = LocalTruss.intersect(keys(pa), keys(pb))
          if (within.isEmpty) { pruned += 1; None }
          else Some((p, Some(within)))
        }
      }
      level = levelJob(tasks)
      levels += level
      k += 1
    }
    bc.destroy()
    val ms = (System.nanoTime() - t0) / 1000000
    Run(levels.result(), MinerStats(kernelCalls, nCandidates, pruned, ms, truncated = level.nonEmpty))
  }

  /** One Spark job over `tasks`, each a pattern p and the edges its theme
    * network is induced from (None: the full network): `kernel` on that
    * theme network, keeping the results with a non-empty C*_p. TCS's MPTD
    * phase calls it too.
    */
  def job[R](spark: SparkSession, bc: Broadcast[CompactNetwork],
             tasks: Seq[(Vector[Int], Option[Vector[(Int, Int)]])])
            (kernel: (Vector[(Int, Int)], Int => Double) => R)
            (edgesOf: R => Vector[(Int, Int)]): Map[Vector[Int], R] =
    if (tasks.isEmpty) Map.empty
    else spark.sparkContext
      .parallelize(tasks, MinerOps.slices(spark, tasks.length))
      .map { case (p, within) =>
        val n = bc.value
        val f = MinerOps.freqFn(n, p)
        (p, kernel(LocalTruss.themeInduce(within.getOrElse(n.edgeList.toIndexedSeq), f), f))
      }
      .filter(r => edgesOf(r._2).nonEmpty)
      .collect()
      .toMap
}
