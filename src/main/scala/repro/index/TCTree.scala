package repro.index

import org.apache.spark.sql.SparkSession
import repro.core._

import scala.collection.mutable

/** One TC-Tree node: the item appended to the parent's pattern, the full
  * pattern it represents, and the decomposed maximal pattern truss L_p
  * (Section 6.1). Nodes with L_p = ∅ are never materialised (Section 6.2).
  */
final class TCNode(val item: Int, val pattern: Vector[Int], val decomp: Decomposition) {
  val children: mutable.ArrayBuffer[TCNode] = mutable.ArrayBuffer.empty

  /** C*_p(α) edges via Equation 1. */
  def trussAt(alpha: Double): Vector[(Int, Int)] = decomp.trussAt(alpha)
}

/** Result of a TC-Tree query: the retrieved maximal pattern trusses, keyed by
  * pattern. `retrievedNodes` is the paper's RN metric (Figure 5).
  */
final case class TCQueryResult(results: Vector[(Vector[Int], Vector[(Int, Int)])]) {
  def retrievedNodes: Int = results.length

  /** Theme communities: maximal connected subgraphs of each retrieved truss. */
  def communities: Seq[(Vector[Int], Set[Int])] =
    results.flatMap { case (p, es) => LocalTruss.connectedComponents(es).map(c => (p, c)) }
}

/** The Theme Community Tree (Section 6.2): a set-enumeration tree over the
  * item universe where each kept node stores the decomposition of its
  * pattern's maximal pattern truss at α = 0. Supports query answering for
  * any (q, α_q) without recomputation (Algorithm 5). `stats` holds the
  * build's counters, `mptdCalls` counting decompositions.
  */
final class TCTree(val root: TCNode, val stats: MinerStats) {

  /** All non-root nodes in breadth-first order. */
  def nodes: Vector[TCNode] = {
    val out = Vector.newBuilder[TCNode]
    val q = mutable.Queue(root)
    while (q.nonEmpty) {
      val n = q.dequeue()
      n.children.foreach { c => out += c; q.enqueue(c) }
    }
    out.result()
  }

  /** #Nodes of Table 3 (root excluded; every node = one maximal pattern truss). */
  def nNodes: Int = nodes.length

  def maxDepth: Int = {
    def d(n: TCNode): Int = if (n.children.isEmpty) 0 else 1 + n.children.map(d).max
    d(root)
  }

  def nodesAtDepth(depth: Int): Vector[TCNode] = nodes.filter(_.pattern.length == depth)

  /** Largest nontrivial α over the whole tree: for α_q ≥ this, QBA returns ∅. */
  def alphaStar: Double = {
    val ns = nodes
    if (ns.isEmpty) 0.0 else ns.iterator.map(_.decomp.maxAlpha).max
  }

  /** Algorithm 5: answer query (q, α_q). Prunes a subtree as soon as the
    * child's item is outside q (its descendants cannot be sub-patterns of q)
    * or the child's truss at α_q is empty (Proposition 5.2 on descendants).
    */
  def query(q: Set[Int], alphaQ: Double): TCQueryResult = {
    val out = Vector.newBuilder[(Vector[Int], Vector[(Int, Int)])]
    val queue = mutable.Queue(root)
    while (queue.nonEmpty) {
      val nf = queue.dequeue()
      for (nc <- nf.children if q.contains(nc.item)) {
        val truss = nc.trussAt(alphaQ)
        if (truss.nonEmpty) {
          out += ((nc.pattern, truss))
          queue.enqueue(nc)
        }
      }
    }
    TCQueryResult(out.result())
  }

  /** Query-by-Alpha (Section 7.3): q = S. */
  def queryByAlpha(allItems: Set[Int], alphaQ: Double): TCQueryResult = query(allItems, alphaQ)

  /** Query-by-Pattern (Section 7.3): α_q = 0. */
  def queryByPattern(q: Vector[Int]): TCQueryResult = query(q.toSet, 0.0)
}

object TCTree {

  /** Algorithm 4: build the TC-Tree of a database network.
    *
    * The level-wise engine (`Levelwise`) decomposes every qualified
    * pattern's theme network: layer 1 (single items) in one Spark job (the
    * paper uses OpenMP threads), deeper candidates *inside*
    * C*_{p_f}(0) ∩ C*_{p_b}(0) (Proposition 5.3). Each pattern is then
    * attached under `pattern.init`, children in item order.
    *
    * @param maxDepth safety cap on pattern length (the enumeration
    *                 terminates on its own when decompositions are empty).
    */
  def build(spark: SparkSession, net: CompactNetwork, maxDepth: Int = Int.MaxValue): TCTree = {
    require(maxDepth >= 1, s"maxDepth must be >= 1, got $maxDepth")
    val run = Levelwise.run(spark, net, maxDepth, withinParents = true)(LocalTruss.decompose)(_.trussAt(0.0))
    val root = new TCNode(-1, Vector.empty, Decomposition.empty)
    var parents = Map(Vector.empty[Int] -> root)
    for (level <- run.levels) {
      parents = level.toSeq.sortBy(_._1.last).map { case (p, d) =>
        val node = new TCNode(p.last, p, d)
        parents(p.init).children += node
        p -> node
      }.toMap
    }
    new TCTree(root, run.stats)
  }
}
