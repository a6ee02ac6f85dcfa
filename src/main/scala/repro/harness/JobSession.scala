package repro.harness

import org.apache.spark.sql.SparkSession

/** SparkSession factory for the `jobs/` spark-submit entrypoints. Mirrors
  * the test configuration; logs only warnings and errors.
  */
object JobSession {
  def get(appName: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }
}
