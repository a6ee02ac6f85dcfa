package repro.core

import repro.index.TCTree
import repro.{SparkSpec, TestNets}

import scala.util.Random

/** TCS / TCFA / TCFI: exactness (TCFA ≡ TCFI), the TCS accuracy trade-off,
  * the paper's anti-monotonicity properties on mined results, and recovery
  * of planted theme communities.
  */
class MinersSuite extends SparkSpec {

  private def assertSameResults(a: MiningResult, b: MiningResult): Unit = {
    assert(a.trusses.keySet == b.trusses.keySet,
      s"pattern sets differ: only-a=${a.trusses.keySet -- b.trusses.keySet} " +
        s"only-b=${b.trusses.keySet -- a.trusses.keySet}")
    for ((p, ta) <- a.trusses) {
      val tb = b.trusses(p)
      assert(ta.edges.toSet == tb.edges.toSet, s"edges differ for ${Pattern.key(p)}")
      for (e <- ta.edges) {
        val k = LocalTruss.ekey(e._1, e._2)
        assert(math.abs(ta.cohesion(k) - tb.cohesion(k)) < 1e-9)
      }
    }
  }

  // ------------------------------------------------------- brute force

  test("TCFA, TCFI and the TC-Tree equal per-pattern kernels on the full network (20 random networks)") {
    // Reference without the level-wise engine: every non-empty sub-pattern of
    // the item set, its theme network induced from the whole network.
    def direct[R](c: CompactNetwork, p: Vector[Int])(kernel: (Vector[(Int, Int)], Int => Double) => R): R = {
      val f = MinerOps.freqFn(c, p)
      kernel(LocalTruss.themeInduce(c.edgeList, f), f)
    }
    val rnd = new Random(61)
    var skippedByAllSubsets = 0L
    for (_ <- 0 until 20) {
      val c = TestNets.randomNet(rnd).compact
      val subs = Pattern.allSubPatterns(c.items.toVector)
      for (alpha <- Seq(0.0, 0.2, 0.5)) {
        val expected = subs.map(p => p -> direct(c, p)(LocalTruss.mptd(_, _, alpha))).filter(!_._2.isEmpty).toMap
        // TCS is exact at eps = 0: a truss's vertices all have f > 0.
        for (r <- Seq(TCFA.run(spark, c, alpha), TCFI.run(spark, c, alpha),
                      TCS.run(spark, c, alpha, eps = 0.0))) {
          assert(r.trusses.keySet == expected.keySet, s"alpha=$alpha")
          for ((p, t) <- r.trusses) assert(t.edges == expected(p).edges, s"alpha=$alpha p=${Pattern.key(p)}")
        }
      }

      val decomps = subs.map(p => p -> direct(c, p)(LocalTruss.decompose)).filter(!_._2.isEmpty).toMap
      val tree = TCTree.build(spark, c)
      assert(tree.nodes.map(_.pattern).toSet == decomps.keySet)
      for (n <- tree.nodes) {
        val d = decomps(n.pattern)
        assert(n.decomp.nodes.length == d.nodes.length, Pattern.key(n.pattern))
        for (((a, ea), (b, eb)) <- n.decomp.nodes.zip(d.nodes)) {
          assert(math.abs(a - b) <= LocalTruss.Eps && ea == eb, Pattern.key(n.pattern))
        }
        assert(n.children.map(_.item) == n.children.map(_.item).sorted)
      }

      // The build's counters against the sibling pairs of the reference: a
      // pair with a non-empty intersection is decomposed unless its union has
      // an unqualified sub-pattern (Algorithm 2's all-subsets check).
      var calls, pruned = 0L
      for {
        (pa, ta) <- decomps; (pb, tb) <- decomps
        if pa.length == pb.length && pa.init == pb.init && pa.last < pb.last
      } {
        val inter = ta.trussAt(0.0).toSet intersect tb.trussAt(0.0).toSet
        val allSubsets = Pattern.subPatternsDropOne(pa :+ pb.last).forall(decomps.contains)
        if (!allSubsets) { if (inter.nonEmpty) skippedByAllSubsets += 1 }
        else if (inter.isEmpty) pruned += 1
        else calls += 1
      }
      assert(tree.stats.mptdCalls == c.items.length + calls)
      assert(tree.stats.prunedByIntersection == pruned)
    }
    assert(skippedByAllSubsets > 0)
  }

  // ------------------------------------------------------------ tiny network

  test("TCFA on the triangle net finds {0}, {1}, {0,1} at alpha = 0.4") {
    val c = TestNets.triangleNet.compact
    val r = TCFA.run(spark, c, 0.4)
    assert(r.trusses.keySet == Set(Vector(0), Vector(1), Vector(0, 1)))
    assert(r.trusses.values.forall(_.nEdges == 3))
  }

  test("strict threshold: eco = 0.5 does not survive alpha = 0.5") {
    val c = TestNets.triangleNet.compact
    val r = TCFA.run(spark, c, 0.5)
    assert(r.trusses.keySet == Set(Vector(0)))
  }

  test("alpha above every cohesion yields no theme communities") {
    val c = TestNets.triangleNet.compact
    assert(TCFA.run(spark, c, 5.0).trusses.isEmpty)
    assert(TCFI.run(spark, c, 5.0).trusses.isEmpty)
  }

  test("TCS with low eps equals TCFA on the triangle net") {
    val c = TestNets.triangleNet.compact
    assertSameResults(TCS.run(spark, c, 0.4, eps = 0.1), TCFA.run(spark, c, 0.4))
  }

  test("TCS with high eps loses the low-frequency pattern (trade-off)") {
    val c = TestNets.triangleNet.compact
    // f({1}) = f({0,1}) = 0.5 on every vertex: eps = 0.6 filters them out.
    val r = TCS.run(spark, c, 0.4, eps = 0.6)
    assert(r.trusses.keySet == Set(Vector(0)))
  }

  // ------------------------------------------------------ exactness at scale

  test("TCFA and TCFI produce identical results on the planted network (alpha sweep)") {
    val c = TestNets.smallPlanted().compact
    for (alpha <- Seq(0.0, 0.2, 0.5)) {
      assertSameResults(TCFA.run(spark, c, alpha, maxLen = 4),
                        TCFI.run(spark, c, alpha, maxLen = 4))
    }
  }

  test("TCFA and TCFI agree on random database networks") {
    val rnd = new Random(51)
    for (_ <- 0 until 3) {
      val g = TestNets.randomNet(rnd, maxN = 10)
      val c = g.compact
      assertSameResults(TCFA.run(spark, c, 0.1, maxLen = 4),
                        TCFI.run(spark, c, 0.1, maxLen = 4))
    }
  }

  test("TCS results are always a subset of the exact results, with equal trusses") {
    val c = TestNets.smallPlanted().compact
    val exact = TCFI.run(spark, c, 0.2, maxLen = 4)
    val tcs = TCS.run(spark, c, 0.2, eps = 0.2, maxLen = 4)
    assert(tcs.trusses.keySet.subsetOf(exact.trusses.keySet))
    for ((p, t) <- tcs.trusses)
      assert(t.edges.toSet == exact.trusses(p).edges.toSet, Pattern.key(p))
  }

  test("lowering eps can only grow the TCS result set") {
    val c = TestNets.smallPlanted().compact
    val loose = TCS.run(spark, c, 0.2, eps = 0.1, maxLen = 4)
    val tight = TCS.run(spark, c, 0.2, eps = 0.3, maxLen = 4)
    assert(tight.trusses.keySet.subsetOf(loose.trusses.keySet))
  }

  // ---------------------------------------------------- mined-result theory

  test("Proposition 5.2 on results: every sub-pattern of a qualified pattern is qualified") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.1, maxLen = 4)
    for (p <- r.trusses.keys if p.length > 1; sub <- Pattern.subPatternsDropOne(p))
      assert(r.trusses.contains(sub), s"${Pattern.key(p)} qualified but ${Pattern.key(sub)} missing")
  }

  test("Theorem 5.1 on results: trusses shrink as patterns grow") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.1, maxLen = 4)
    for (p <- r.trusses.keys if p.length > 1; sub <- Pattern.subPatternsDropOne(p)) {
      val big = r.trusses(sub).edges.toSet
      assert(r.trusses(p).edges.toSet.subsetOf(big))
    }
  }

  test("Proposition 5.3 on results: truss of a union lies in the intersection") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.1, maxLen = 4)
    for (p <- r.trusses.keys if p.length == 2) {
      val inter = r.trusses(Vector(p(0))).edges.toSet intersect r.trusses(Vector(p(1))).edges.toSet
      assert(r.trusses(p).edges.toSet.subsetOf(inter))
    }
  }

  // ----------------------------------------------------------- planted truth

  test("TCFI recovers planted favourite patterns as theme communities") {
    val g = TestNets.smallPlanted()
    val r = TCFI.run(spark, g.compact, 0.1, maxLen = 4)
    val planted = g.groundTruth.filter(_._1.length >= 2)
    val recovered = planted.count { case (p, members) =>
      r.trusses.get(p).exists(t => (t.vertices intersect members).size >= 3)
    }
    assert(recovered * 2 >= planted.size,
      s"recovered only $recovered of ${planted.size} planted patterns")
  }

  test("mined communities overlap strongly with their planted groups") {
    val g = TestNets.smallPlanted()
    val r = TCFI.run(spark, g.compact, 0.1, maxLen = 4)
    val gt = g.groundTruth.toMap
    val full = r.communities.filter { case (p, _) => gt.contains(p) && p.length >= 2 }
    assert(full.nonEmpty)
    val good = full.count { case (p, mem) => (mem intersect gt(p)).size >= mem.size / 2 }
    assert(good * 2 >= full.size)
  }

  // --------------------------------------------------------- stats/counters

  test("NP equals the number of trusses; NV/NE aggregate over trusses") {
    val c = TestNets.triangleNet.compact
    val r = TCFA.run(spark, c, 0.4)
    assert(r.np == 3)
    assert(r.nv == 9) // 3 trusses x 3 vertices each (counted per truss)
    assert(r.ne == 9)
  }

  test("TCFI never runs more MPTD calls than TCFA") {
    val c = TestNets.smallPlanted().compact
    val fa = TCFA.run(spark, c, 0.1, maxLen = 4)
    val fi = TCFI.run(spark, c, 0.1, maxLen = 4)
    assert(fi.stats.mptdCalls <= fa.stats.mptdCalls)
    assert(fi.stats.mptdCalls + fi.stats.prunedByIntersection == fa.stats.mptdCalls)
  }

  test("candidate counters: examined candidates bound MPTD calls") {
    val c = TestNets.smallPlanted().compact
    val fi = TCFI.run(spark, c, 0.2, maxLen = 4)
    assert(fi.stats.mptdCalls <= fi.stats.candidates)
    assert(fi.stats.timeMs >= 0)
  }

  test("maxLen caps the pattern length in results") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.0, maxLen = 2)
    assert(r.trusses.keys.forall(_.length <= 2))
    assert(r.stats.truncated)
    assert(TCS.run(spark, c, 0.0, eps = 0.1, maxLen = 2).stats.truncated)
    // On the triangle net every run ends by itself before the default cap.
    val tri = TestNets.triangleNet.compact
    assert(!TCFA.run(spark, tri, 0.0).stats.truncated)
    assert(!TCFI.run(spark, tri, 0.0).stats.truncated)
    assert(!TCS.run(spark, tri, 0.0, eps = 0.1).stats.truncated)
  }

  // ------------------------------------------------------- input validation

  test("a negative alpha is rejected before any Spark job by TCS, TCFA and TCFI") {
    val c = TestNets.triangleNet.compact
    intercept[IllegalArgumentException](TCS.run(spark, c, -0.1, eps = 0.1))
    intercept[IllegalArgumentException](TCFA.run(spark, c, -0.1))
    intercept[IllegalArgumentException](TCFI.run(spark, c, -0.1))
  }

  test("a negative eps is rejected by TCS") {
    intercept[IllegalArgumentException](TCS.run(spark, TestNets.triangleNet.compact, 0.1, eps = -0.1))
  }

  test("maxLen below 1 is rejected by TCS, TCFA and TCFI") {
    val c = TestNets.triangleNet.compact
    intercept[IllegalArgumentException](TCS.run(spark, c, 0.1, eps = 0.1, maxLen = 0))
    intercept[IllegalArgumentException](TCFA.run(spark, c, 0.1, maxLen = 0))
    intercept[IllegalArgumentException](TCFI.run(spark, c, 0.1, maxLen = 0))
  }

  test("communities partition each truss's vertices") {
    val c = TestNets.smallPlanted().compact
    val r = TCFI.run(spark, c, 0.2, maxLen = 3)
    val byPattern = r.communities.groupBy(_._1)
    for ((p, t) <- r.trusses) {
      val comms = byPattern(p).map(_._2)
      assert(comms.map(_.size).sum == t.nVertices)
      assert(comms.reduce(_ ++ _) == t.vertices)
    }
  }
}
