package repro.core

/** Pattern (theme) algebra.
  *
  * A pattern is an itemset `p ⊆ S`. We encode items as non-negative `Int`
  * ids and a pattern as a canonically *sorted* `Vector[Int]` so patterns can
  * be used as map keys and written in the set-enumeration-tree item order ≺
  * required by the TC-Tree (Section 6.2 of the paper).
  */
object Pattern {

  /** Canonical pattern: distinct items, ascending order. */
  def apply(items: Iterable[Int]): Vector[Int] = items.toVector.distinct.sorted

  /** Human-readable key, e.g. "3|17|42". Empty pattern renders as "∅". */
  def key(p: Vector[Int]): String = if (p.isEmpty) "∅" else p.mkString("|")

  /** True iff `sub` ⊆ `sup`; both must be canonical (sorted, distinct). */
  def isSubPattern(sub: Vector[Int], sup: Vector[Int]): Boolean = {
    var i = 0; var j = 0
    while (i < sub.length && j < sup.length) {
      if (sub(i) == sup(j)) { i += 1; j += 1 }
      else if (sub(i) > sup(j)) j += 1
      else return false
    }
    i == sub.length
  }

  /** All length-(|p|-1) sub-patterns of `p` (each obtained by dropping one item). */
  def subPatternsDropOne(p: Vector[Int]): Seq[Vector[Int]] =
    p.indices.map(i => p.patch(i, Nil, 1))

  /** All non-empty sub-patterns of `p` (2^|p| − 1 of them). Small |p| only. */
  def allSubPatterns(p: Vector[Int]): Seq[Vector[Int]] = {
    require(p.length <= 20, s"pattern too long to enumerate: ${p.length}")
    (1 until (1 << p.length)).map { mask =>
      p.indices.collect { case i if (mask & (1 << i)) != 0 => p(i) }.toVector
    }
  }

  /** Algorithm 2 (Generate Apriori Candidate Patterns).
    *
    * Joins every pair of length-(k−1) qualified patterns whose union has
    * length k, and keeps a candidate only if *all* of its length-(k−1)
    * sub-patterns are qualified. Returns each candidate together with one
    * generating parent pair — TCFI (Section 5.3) induces the candidate's
    * theme network from the intersection of that pair's maximal pattern
    * trusses.
    *
    * Pairs are joined in the classic prefix form: two sorted patterns that
    * share the first k−2 items produce exactly one length-k union, and every
    * length-k itemset with all subsets qualified is generated exactly once.
    * The pair is (cand.init, cand.init.init :+ cand.last), the sub-patterns
    * without the last and without the second-to-last item, so only the other
    * k−2 sub-patterns are looked up.
    */
  def aprioriJoin(qualified: Seq[Vector[Int]])
      : Seq[(Vector[Int], (Vector[Int], Vector[Int]))] = {
    if (qualified.isEmpty) return Nil
    val k1 = qualified.head.length
    require(qualified.forall(_.length == k1), "all parents must share one length")
    val qualSet = new java.util.HashSet[Vector[Int]](qualified.length * 2)
    qualified.foreach(qualSet.add)
    qualified.groupBy(_.init).valuesIterator.flatMap { group =>
      val sorted = group.sortBy(_.last)
      for {
        i <- sorted.indices.iterator
        j <- (i + 1) until sorted.length
        cand = sorted(i) :+ sorted(j).last
        if (0 until k1 - 1).forall(d => qualSet.contains(cand.patch(d, Nil, 1)))
      } yield (cand, (sorted(i), sorted(j)))
    }.toVector
  }
}
