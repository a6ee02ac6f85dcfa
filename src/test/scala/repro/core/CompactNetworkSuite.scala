package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The one `CompactNetwork` builder: what it rejects and how it normalises. */
class CompactNetworkSuite extends AnyFunSuite {

  private val threeDbs = Vector.fill(3)(Seq(Seq(0)))

  test("rejects an edge endpoint outside [0, n)") {
    intercept[IllegalArgumentException](CompactNetwork(3, Seq((0, 3)), threeDbs))
    intercept[IllegalArgumentException](CompactNetwork(3, Seq((-1, 2)), threeDbs))
  }

  test("rejects a self-loop") {
    intercept[IllegalArgumentException](CompactNetwork(3, Seq((0, 1), (2, 2)), threeDbs))
  }

  test("rejects a transaction list whose length is not n") {
    intercept[IllegalArgumentException](CompactNetwork(3, Seq((0, 1)), threeDbs.take(2)))
    intercept[IllegalArgumentException](CompactNetwork(3, Seq((0, 1)), threeDbs :+ Seq(Seq(1))))
  }

  test("de-duplicates and sorts adjacency and transaction items, keeps repeated transactions") {
    val c = CompactNetwork(4, Seq((2, 0), (0, 2), (1, 0), (0, 3)),
                           Vector(Seq(Seq(3, 1, 3)), Seq(Seq(5), Seq(5)), Seq.empty, Seq(Seq.empty)))
    assert(c.adj.map(_.toSeq).toSeq == Seq(Seq(1, 2, 3), Seq(0), Seq(0), Seq(0)))
    assert(c.edgeList.toSeq == Seq((0, 1), (0, 2), (0, 3)))
    assert(c.txs.map(_.map(_.toSeq).toSeq).toSeq ==
           Seq(Seq(Seq(1, 3)), Seq(Seq(5), Seq(5)), Seq.empty, Seq(Seq.empty)))
  }
}
