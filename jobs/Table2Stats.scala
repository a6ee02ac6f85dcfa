package repro.jobs

import repro.harness.Experiments

/** spark-submit entrypoint reproducing Table 2 (dataset statistics) on the
  * four container-scale database networks. Needs no Spark session.
  *
  *   spark-submit --class repro.jobs.Table2Stats <jar>
  */
object Table2Stats {
  def main(args: Array[String]): Unit = {
    println("== Table 2: statistics of the database networks ==")
    println(Experiments.formatTable2(Experiments.table2()))
  }
}
