package repro.core

import org.apache.spark.sql.SparkSession

/** Counters reported by the paper's efficiency study (Section 7):
  * `mptdCalls` is the number of MPTD invocations (Figure 3 discussion),
  * `candidates` the number of candidate patterns examined, and
  * `prunedByIntersection` the TCFI candidates discarded because the parent
  * trusses' intersection was empty (no MPTD run).
  */
final case class MinerStats(
    mptdCalls: Long,
    candidates: Long,
    prunedByIntersection: Long,
    timeMs: Long,
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

  /** MPTD on the theme network of `p` induced from the edge set `within`. */
  def detect(net: CompactNetwork, p: Vector[Int], within: Iterable[(Int, Int)], alpha: Double): Truss = {
    val f = freqFn(net, p)
    LocalTruss.mptd(LocalTruss.themeInduce(within, f), f, alpha)
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
    val t0 = System.nanoTime()
    val sc = spark.sparkContext
    val bc = sc.broadcast(net)
    val candidates = sc
      .parallelize(0 until net.n, MinerOps.slices(spark, net.n))
      .flatMap { v =>
        localFrequentPatterns(bc.value.txs(v).toIndexedSeq, eps, maxLen)
      }
      .distinct()
      .collect()
    val found = sc
      .parallelize(candidates.toIndexedSeq, MinerOps.slices(spark, candidates.length))
      .map { p =>
        val n = bc.value
        (p, MinerOps.detect(n, p, n.edgeList, alpha))
      }
      .filter(!_._2.isEmpty)
      .collect()
    bc.destroy()
    val ms = (System.nanoTime() - t0) / 1000000
    MiningResult(found.toMap, MinerStats(candidates.length.toLong, candidates.length.toLong, 0L, ms))
  }

  /** Per-vertex frequent-pattern enumeration, the candidate step: all
    * patterns p with f_v(p) > eps for the one vertex database `db`, up to
    * `maxLen` items. Depth-first search over sorted items with tid-list
    * intersection; the frequency threshold is anti-monotone so pruning is
    * exact.
    */
  private[core] def localFrequentPatterns(db: IndexedSeq[Array[Int]], eps: Double, maxLen: Int): Vector[Vector[Int]] = {
    val nTx = db.length
    if (nTx == 0) return Vector.empty
    val tid = scala.collection.mutable.Map.empty[Int, scala.collection.mutable.ArrayBuffer[Int]]
    for ((t, ti) <- db.zipWithIndex; item <- t.distinct)
      tid.getOrElseUpdate(item, scala.collection.mutable.ArrayBuffer.empty) += ti
    val items = tid.keys.toArray.sorted
    val out = Vector.newBuilder[Vector[Int]]
    def dfs(prefix: Vector[Int], prefixTids: Array[Int], startIdx: Int): Unit = {
      var i = startIdx
      while (i < items.length) {
        val it = items(i)
        val itTids = tid(it).toArray
        val merged =
          if (prefix.isEmpty) itTids
          else {
            val b = Array.newBuilder[Int]
            var x = 0; var y = 0
            while (x < prefixTids.length && y < itTids.length) {
              if (prefixTids(x) == itTids(y)) { b += prefixTids(x); x += 1; y += 1 }
              else if (prefixTids(x) < itTids(y)) x += 1
              else y += 1
            }
            b.result()
          }
        if (merged.length.toDouble / nTx > eps) {
          val p = prefix :+ it
          out += p
          if (p.length < maxLen) dfs(p, merged, i + 1)
        }
        i += 1
      }
    }
    dfs(Vector.empty, Array.empty, 0)
    out.result()
  }
}

/** Theme Community Finder Apriori (Algorithm 3). Level-wise: qualified
  * length-(k−1) patterns generate length-k candidates via Algorithm 2; each
  * candidate's theme network is induced from the *full* database network and
  * peeled by MPTD. Exact.
  */
object TCFA {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double,
          maxLen: Int = 6): MiningResult =
    Levelwise.run(spark, net, alpha, maxLen, useIntersection = false)
}

/** Theme Community Finder Intersection (Section 5.3). Same level-wise loop
  * as TCFA, but a candidate p^k = p^{k−1} ∪ q^{k−1} has its theme network
  * induced from C*_{p^{k−1}}(α) ∩ C*_{q^{k−1}}(α) (Proposition 5.3); an empty
  * intersection prunes the candidate without running MPTD. Exact.
  */
object TCFI {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double,
          maxLen: Int = 6): MiningResult =
    Levelwise.run(spark, net, alpha, maxLen, useIntersection = true)
}

private object Levelwise {
  def run(spark: SparkSession, net: CompactNetwork, alpha: Double, maxLen: Int,
          useIntersection: Boolean): MiningResult = {
    val t0 = System.nanoTime()
    val sc = spark.sparkContext
    val bc = sc.broadcast(net)
    var mptdCalls = 0L
    var pruned = 0L
    var nCandidates = 0L

    // Level 1: MPTD on every single-item theme network (Algorithm 3 line 1).
    val items = net.items
    nCandidates += items.length
    mptdCalls += items.length
    var level: Map[Vector[Int], Truss] = sc
      .parallelize(items.toIndexedSeq, MinerOps.slices(spark, items.length))
      .map { s =>
        val n = bc.value
        (Vector(s), MinerOps.detect(n, Vector(s), n.edgeList, alpha))
      }
      .filter(!_._2.isEmpty)
      .collect()
      .toMap
    var all = level
    var k = 2

    while (level.nonEmpty && k <= maxLen) {
      val cands = Pattern.aprioriJoin(level.keys.toSeq)
      nCandidates += cands.length
      // TCFI (Section 5.3): intersect the generating parents' trusses on the
      // driver (they are small local subgraphs); an empty intersection prunes
      // the candidate with no MPTD call. TCFA peels within the full network.
      val tasks: Seq[(Vector[Int], Option[Vector[(Int, Int)]])] = cands.flatMap {
        case (p, (pa, pb)) =>
          if (!useIntersection) Some((p, None))
          else {
            val within = level(pa).intersectEdges(level(pb))
            if (within.isEmpty) { pruned += 1; None }
            else Some((p, Some(within)))
          }
      }
      mptdCalls += tasks.length
      val next =
        if (tasks.isEmpty) Map.empty[Vector[Int], Truss]
        else sc
          .parallelize(tasks, MinerOps.slices(spark, tasks.length))
          .map { case (p, withinOpt) =>
            val n = bc.value
            val within: Iterable[(Int, Int)] = withinOpt.getOrElse(n.edgeList.toIndexedSeq)
            (p, MinerOps.detect(n, p, within, alpha))
          }
          .filter(!_._2.isEmpty)
          .collect()
          .toMap
      all = all ++ next
      level = next
      k += 1
    }
    bc.destroy()
    val ms = (System.nanoTime() - t0) / 1000000
    MiningResult(all, MinerStats(mptdCalls, nCandidates, pruned, ms))
  }
}
