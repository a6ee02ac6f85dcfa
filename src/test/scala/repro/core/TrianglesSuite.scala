package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle.Table
import repro.{Oracle, TestNets}

import scala.util.Random

/** Triangles and edge cohesion (Definition 3.1) as `LocalTruss.edgeCohesion`
  * computes them before any peeling, against hand counts, a from-scratch
  * computation, and DuckDB. With every frequency 1 an edge's cohesion is the
  * number of triangles through it.
  */
class TrianglesSuite extends AnyFunSuite {

  private val one: Int => Double = _ => 1.0

  private def eco(es: Seq[(Int, Int)], f: Int => Double): Map[(Int, Int), Double] =
    LocalTruss.edgeCohesion(es, f).map { case (k, c) => LocalTruss.dekey(k) -> c }

  /** Triangles through each edge, and the number of triangles in the graph. */
  private def triangles(es: Seq[(Int, Int)]): (Map[(Int, Int), Int], Int) = {
    val perEdge = eco(es, one).map { case (e, c) => e -> c.round.toInt }
    (perEdge, perEdge.values.sum / 3)
  }

  test("triangles: single triangle") {
    assert(triangles(Seq((0, 1), (0, 2), (1, 2))) ==
      (Map((0, 1) -> 1, (0, 2) -> 1, (1, 2) -> 1), 1))
  }

  test("triangles: K4 has four") {
    val k4 = for (i <- 0 until 4; j <- (i + 1) until 4) yield (i, j)
    assert(triangles(k4) == (k4.map(_ -> 2).toMap, 4))
  }

  test("triangles: path graph has none") {
    val (perEdge, total) = triangles(Seq((0, 1), (1, 2), (2, 3)))
    assert(total == 0)
    assert(perEdge.size == 3 && perEdge.values.forall(_ == 0))
  }

  test("triangles: bowtie has two") {
    val bow = Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    val (perEdge, total) = triangles(bow)
    assert(total == 2)
    assert(perEdge((1, 2)) == 2)
  }

  test("triangles match DuckDB on a random graph") {
    val g = TestNets.randomNet(new Random(31))
    Oracle.assertEquivalent(
      Table(Seq("src", "dst", "triangles"),
            triangles(g.edges)._1.toSeq.map { case ((u, v), t) => (u, v, t) }),
      """WITH tri AS (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        |             FROM edges e1 JOIN edges e2 ON e2.src = e1.dst
        |                           JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst),
        |     contrib AS (SELECT a AS s, b AS d FROM tri
        |                 UNION ALL SELECT a, c FROM tri
        |                 UNION ALL SELECT b, c FROM tri)
        |SELECT edges.src AS src, edges.dst AS dst, COUNT(contrib.s) AS triangles
        |FROM edges LEFT JOIN contrib ON contrib.s = edges.src AND contrib.d = edges.dst
        |GROUP BY edges.src, edges.dst""".stripMargin,
      "edges" -> Table(Seq("src", "dst"), g.edges),
    )
  }

  test("edgeCohesion with unit frequencies counts triangles per edge") {
    val bow = Seq((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    assert(eco(bow, one) == Map((0, 1) -> 1.0, (0, 2) -> 1.0, (1, 2) -> 2.0, (1, 3) -> 1.0, (2, 3) -> 1.0))
  }

  test("edgeCohesion: triangle-free edges present with cohesion 0") {
    val c = eco(Seq((0, 1), (1, 2), (0, 2), (2, 3)), one)
    assert(c((2, 3)) == 0.0)
    assert(c.size == 4)
  }

  test("edgeCohesion takes the min frequency over the triangle corners") {
    val c = eco(Seq((0, 1), (0, 2), (1, 2)), Map(0 -> 0.9, 1 -> 0.5, 2 -> 0.3))
    assert(c.values.forall(v => math.abs(v - 0.3) < 1e-12))
  }

  test("edgeCohesion matches the Example 3.2 arithmetic") {
    // e12 in triangles {1,2,3} and {1,2,5}: eco = min(f1,f2,f3) + min(f1,f2,f5).
    val es = Seq((1, 2), (1, 3), (2, 3), (1, 5), (2, 5))
    val c = eco(es, Map(1 -> 0.5, 2 -> 0.4, 3 -> 0.1, 5 -> 0.1))
    assert(math.abs(c((1, 2)) - 0.2) < 1e-12)
  }

  test("edgeCohesion matches local from-scratch computation on random graphs") {
    val rnd = new Random(32)
    for (_ <- 0 until 3) {
      val g = TestNets.randomNet(rnd)
      val fArr = Array.fill(g.n)(rnd.nextInt(11) / 10.0)
      val c = eco(g.edges, fArr(_))
      val adj = g.edges.flatMap { case (u, v) => Seq(u -> v, v -> u) }
        .groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
      assert(c.size == g.edges.length)
      for ((u, v) <- g.edges) {
        val common = adj(u) intersect adj(v)
        val expect = common.toSeq.map(w => Seq(fArr(u), fArr(v), fArr(w)).min).sum
        assert(math.abs(c((u, v)) - expect) < 1e-9, s"edge ($u,$v)")
      }
    }
  }

  test("edgeCohesion matches DuckDB end-to-end") {
    val g = TestNets.randomNet(new Random(33))
    val f = (0 until g.n).map(i => i -> ((i % 10) / 10.0 + 0.1))
    Oracle.assertEquivalent(
      Table(Seq("src", "dst", "eco"),
            eco(g.edges, f.toMap).toSeq.map { case ((u, v), x) => (u, v, x) }),
      """WITH tri AS (SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
        |             FROM edges e1 JOIN edges e2 ON e2.src = e1.dst
        |                           JOIN edges e3 ON e3.src = e1.src AND e3.dst = e2.dst),
        |     tm AS (SELECT a, b, c, LEAST(fa.freq, fb.freq, fc.freq) AS m
        |            FROM tri JOIN freqs fa ON fa.v = a
        |                     JOIN freqs fb ON fb.v = b
        |                     JOIN freqs fc ON fc.v = c),
        |     contrib AS (SELECT a AS s, b AS d, m FROM tm
        |                 UNION ALL SELECT a, c, m FROM tm
        |                 UNION ALL SELECT b, c, m FROM tm)
        |SELECT edges.src AS src, edges.dst AS dst, COALESCE(SUM(contrib.m), 0.0) AS eco
        |FROM edges LEFT JOIN contrib ON contrib.s = edges.src AND contrib.d = edges.dst
        |GROUP BY edges.src, edges.dst""".stripMargin,
      "edges" -> Table(Seq("src", "dst"), g.edges),
      "freqs" -> Table(Seq("v", "freq"), f),
    )
  }
}
