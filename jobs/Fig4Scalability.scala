package repro.jobs

import repro.harness.{Experiments, JobSession}
import repro.netgen.NetGen

/** spark-submit entrypoint reproducing Figure 4: runtime and truss-size
  * metrics vs. the number of BFS-sampled edges, at worst case α = 0.
  *
  *   spark-submit --class repro.jobs.Fig4Scalability <jar>
  */
object Fig4Scalability {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.get("fig4-scalability")
    try {
      val runs = Seq(
        ("BK", NetGen.bkLike(), Seq(500, 1000, 2000, 4000)),
        ("GW", NetGen.gwLike(), Seq(1000, 2000, 4000, 8000)),
        ("AMINER", NetGen.aminerLike(), Seq(500, 1000, 2000, 4000)),
      )
      for ((name, base, sizes) <- runs) {
        println(s"== Figure 4 scalability on $name ==")
        println(Experiments.formatFig4(Experiments.fig4(spark, base, sizes)))
      }
    } finally spark.stop()
  }
}
