package repro.tcbench

import org.apache.spark.sql.SparkSession

/** Entry point:
  * `Main --workload <aminer|syn> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints a readable report, then as its last line one JSON object with
  * `correct`, `attempted`, `failed` and `metrics`. Exits 2 on bad arguments
  * and 1 if the run throws; a run whose outputs fail their checks still
  * exits 0 and reports `"correct": false`.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  private def parse(argv: Array[String]): Args = {
    require(argv.length % 2 == 0, "arguments come in --name value pairs")
    val kv = argv.grouped(2).map { case Array(k, v) => k -> v }.toMap
    val known = Set("--workload", "--seed", "--seconds", "--trace")
    require(kv.keySet.subsetOf(known), s"unknown arguments: ${(kv.keySet -- known).mkString(" ")}")
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing $k"))
    val w = Workload.byName.getOrElse(get("--workload"),
      throw new IllegalArgumentException(s"workload must be one of ${Workload.byName.keys.mkString(", ")}"))
    val seconds = get("--seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    val trace = get("--trace") match {
      case "0" => false
      case "1" => true
      case other => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $other")
    }
    Args(w, get("--seed").toLong, seconds, trace)
  }

  def main(argv: Array[String]): Unit = {
    val args =
      try parse(argv)
      catch {
        case e: IllegalArgumentException =>
          System.err.println(s"tcbench: ${e.getMessage}")
          sys.exit(2)
      }
    val cores = Runtime.getRuntime.availableProcessors
    val workDir = sys.props.getOrElse("tcbench.workdir", ".bench_build/work")
    val (spark, sessionS) = Clock.time {
      SparkSession.builder
        .master(s"local[$cores]")
        .appName(s"tcbench-${args.workload.name}")
        .config("spark.ui.enabled", false)
        .config("spark.ui.showConsoleProgress", false)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
        // A traced AMINER build posts ~160k task events in seconds; the
        // default queue of 10k would drop some of them.
        .config("spark.scheduler.listenerbus.eventqueue.capacity", 400000)
        .getOrCreate()
    }
    spark.sparkContext.setLogLevel("WARN")
    val code =
      try {
        println(new Bench(spark, args, cores, sessionS).run())
        0
      } catch {
        case e: Throwable =>
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }
}
