package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.Oracle.Table
import repro.netgen.GenNet
import repro.{Oracle, TestNets}

import scala.util.Random

/** Pattern frequencies f_v(p) (`CompactNetwork.freq`), the theme network G_p
  * (`LocalTruss.themeInduce`) and TCS's per-vertex frequent patterns, against
  * hand-computed values, brute force, and the definitions written as SQL on
  * DuckDB over the raw network.
  */
class FrequencySuite extends AnyFunSuite {

  private val hand = TestNets.handNet

  private def freqs(g: GenNet, p: Vector[Int]): Seq[Double] = g.compact.freqAll(p).toSeq

  private def checkFreqSql(g: GenNet, p: Vector[Int]): Unit = {
    val c = g.compact
    Oracle.assertEquivalent(
      Table(Seq("v", "freq"), (0 until c.n).map(v => (v, c.freq(v, p)))),
      s"WITH ${Oracle.freqsSql(p)} SELECT v, freq FROM freqs",
      Oracle.tables(g): _*,
    )
  }

  private def themeEdges(g: GenNet, p: Vector[Int]): Vector[(Int, Int)] = {
    val c = g.compact
    LocalTruss.themeInduce(c.edgeList, MinerOps.freqFn(c, p))
  }

  test("frequencies: hand-computed single-item values") {
    assert(freqs(hand, Vector(0)) == Seq(2.0 / 3, 1.0, 0.0, 0.5))
    assert(freqs(hand, Vector(2)) == Seq(1.0 / 3, 0.0, 0.0, 0.0))
  }

  test("frequencies: hand-computed pair pattern") {
    assert(freqs(hand, Vector(0, 1)) == Seq(1.0 / 3, 1.0, 0.0, 0.5))
  }

  test("frequencies: empty pattern is 1 unless the database is empty") {
    // v3's empty transaction still counts towards |d_3|, and contains ∅.
    assert(freqs(hand, Vector.empty) == Seq(1.0, 1.0, 0.0, 1.0))
  }

  test("frequencies: unseen item gives all zeros") {
    assert(freqs(hand, Vector(99)).forall(_ == 0.0))
  }

  test("frequencies: anti-monotone in the pattern (f(p1) >= f(p2) for p1 ⊆ p2)") {
    val rnd = new Random(20)
    for (g <- hand +: Seq.fill(3)(TestNets.randomNet(rnd));
         (p1, p2) <- Seq(Vector.empty[Int] -> Vector(0), Vector(0) -> Vector(0, 1), Vector(1) -> Vector(0, 1))) {
      val f1 = freqs(g, p1)
      val f2 = freqs(g, p2)
      assert(f1.indices.forall(v => f1(v) >= f2(v)), s"p1=$p1 p2=$p2")
    }
  }

  test("frequencies agree with CompactNetwork.freq on random networks") {
    val rnd = new Random(21)
    for (_ <- 0 until 3) {
      val g = TestNets.randomNet(rnd)
      val c = g.compact
      for (p <- Seq(Vector(0), Vector(1, 2), Vector(0, 3)); v <- 0 until g.n) {
        val db = g.txs(v)
        val expect = db.count(t => p.forall(t.contains)).toDouble / db.length
        assert(math.abs(c.freq(v, p) - expect) < 1e-12, s"v=$v p=$p")
      }
    }
  }

  test("frequencies match DuckDB (single item)") {
    Seq(Vector(0), Vector(2), Vector(99)).foreach(checkFreqSql(hand, _))
    val rnd = new Random(21)
    for (_ <- 0 until 2; p <- Seq(Vector(0), Vector(3)))
      checkFreqSql(TestNets.randomNet(rnd), p)
  }

  test("frequencies match DuckDB (pair pattern, random network)") {
    Seq(Vector(0, 1), Vector.empty[Int]).foreach(checkFreqSql(hand, _))
    val rnd = new Random(22)
    for (_ <- 0 until 2; p <- Seq(Vector(1, 2), Vector(0, 3)))
      checkFreqSql(TestNets.randomNet(rnd), p)
  }

  test("themeNetwork keeps exactly the edges between positive-frequency vertices") {
    // f(0) is positive on v0, v1, v3 and zero on v2; f(2) only on v0.
    assert(themeEdges(hand, Vector(0)).toSet == Set((0, 1), (0, 3), (1, 3)))
    assert(themeEdges(hand, Vector(2)).isEmpty)
  }

  test("themeNetwork matches DuckDB join") {
    def check(g: GenNet, p: Vector[Int]): Unit =
      Oracle.assertEquivalent(
        Table(Seq("src", "dst"), themeEdges(g, p)),
        s"""WITH ${Oracle.freqsSql(p)},
           |     e AS (SELECT DISTINCT LEAST(src, dst) AS s, GREATEST(src, dst) AS d FROM edges)
           |SELECT e.s AS src, e.d AS dst
           |FROM e JOIN freqs a ON a.v = e.s JOIN freqs b ON b.v = e.d
           |WHERE a.freq > 0 AND b.freq > 0""".stripMargin,
        Oracle.tables(g): _*,
      )
    Seq(Vector(0), Vector(2), Vector(0, 1), Vector.empty[Int], Vector(99)).foreach(check(hand, _))
    val rnd = new Random(23)
    for (_ <- 0 until 3; p <- Seq(Vector(0), Vector(1, 2)))
      check(TestNets.randomNet(rnd), p)
  }

  test("themeNetwork of the empty pattern is the whole graph (non-empty DBs)") {
    assert(themeEdges(TestNets.triangleNet, Vector.empty).length == 3)
    val rnd = new Random(23)
    for (_ <- 0 until 3) {
      val g = TestNets.randomNet(rnd)
      assert(themeEdges(g, Vector.empty).length == g.compact.nEdges)
    }
    // v2's empty database drops its one edge (1,2).
    assert(themeEdges(hand, Vector.empty).toSet == Set((0, 1), (0, 3), (1, 3)))
  }

  // --------------------------------------------- localFrequentPatterns (TCS)

  /** TCS's candidate step on a one-vertex network holding `db`. */
  private def localFrequentPatterns(db: IndexedSeq[Array[Int]], eps: Double, maxLen: Int): Vector[Vector[Int]] =
    TCS.localFrequentPatterns(CompactNetwork(1, Nil, IndexedSeq(db.map(_.toSeq))), 0, eps, maxLen)

  test("localFrequentPatterns: hand case with strict threshold") {
    val db = IndexedSeq(Array(0, 1), Array(0, 1), Array(0, 2), Array(2))
    // f(0)=0.75, f(1)=0.5, f(2)=0.5, f(01)=0.5, f(02)=0.25
    val got = localFrequentPatterns(db, 0.4, 6).toSet
    assert(got == Set(Vector(0), Vector(1), Vector(2), Vector(0, 1)))
    // strictness: eps = 0.5 excludes everything at frequency exactly 0.5
    assert(localFrequentPatterns(db, 0.5, 6).toSet == Set(Vector(0)))
  }

  test("localFrequentPatterns respects maxLen") {
    val db = IndexedSeq(Array(0, 1, 2), Array(0, 1, 2))
    val got = localFrequentPatterns(db, 0.1, 2)
    assert(got.forall(_.length <= 2))
    assert(got.contains(Vector(0, 1)))
    assert(!got.contains(Vector(0, 1, 2)))
  }

  test("localFrequentPatterns of an empty database is empty") {
    assert(localFrequentPatterns(IndexedSeq.empty, 0.0, 6).isEmpty)
  }

  test("localFrequentPatterns handles duplicate transactions (multi-set)") {
    val db = IndexedSeq(Array(3), Array(3), Array(3), Array(4))
    assert(localFrequentPatterns(db, 0.7, 6) == Vector(Vector(3)))
  }

  test("localFrequentPatterns matches brute force on random DBs (30 cases)") {
    val rnd = new Random(24)
    for (_ <- 0 until 30) {
      val db = IndexedSeq.fill(1 + rnd.nextInt(6))(
        Array.fill(1 + rnd.nextInt(4))(rnd.nextInt(5)).distinct.sorted)
      val eps = rnd.nextInt(5) / 10.0
      val items = db.flatten.distinct.sorted
      def freq(p: Vector[Int]): Double =
        db.count(t => p.forall(t.contains)).toDouble / db.length
      val expected = (1 to math.min(items.length, 6)).flatMap(k =>
        items.toVector.combinations(k).filter(p => freq(p) > eps)).toSet
      val got = localFrequentPatterns(db, eps, 6).toSet
      assert(got == expected, s"db=${db.map(_.toList)} eps=$eps")
    }
  }

  test("localFrequentPatterns output is canonical and distinct") {
    val rnd = new Random(25)
    val db = IndexedSeq.fill(8)(Array.fill(4)(rnd.nextInt(6)).distinct.sorted)
    val got = localFrequentPatterns(db, 0.1, 6)
    assert(got.forall(p => p == p.distinct.sorted))
    assert(got.distinct == got)
  }
}
