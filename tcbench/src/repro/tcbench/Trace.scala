package repro.tcbench

import java.lang.management.ManagementFactory

import org.apache.spark.{ListenerDrain, SparkContext, Success}
import org.apache.spark.scheduler._

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Named metric values of one run, in the order they were recorded. */
final class Metrics {
  private val values = mutable.LinkedHashMap.empty[String, (Double, String)]

  /** `metrics(name) = (value, unit)` */
  def update(name: String, valueAndUnit: (Double, String)): Unit = {
    require(!values.contains(name), s"metric $name recorded twice")
    values(name) = valueAndUnit
  }

  def toSeq: Seq[(String, (Double, String))] = values.toSeq
}

object Clock {
  def secondsSince(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  /** Runs `f` and returns its result with the wall time in seconds. */
  def time[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, secondsSince(t0))
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear interpolation between closest ranks (numpy's default). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val h = (s.length - 1) * q
    val lo = math.floor(h).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }
}

/** Collection time and count summed over every garbage collector. */
object Gc {
  private def beans = ManagementFactory.getGarbageCollectorMXBeans.asScala

  def snapshot(): (Long, Long) =
    (beans.iterator.map(_.getCollectionTime).sum, beans.iterator.map(_.getCollectionCount).sum)

  /** Heap in use after two full collections, in bytes. The pause lets
    * Spark's asynchronous cleanup of broadcasts and blocks finish first.
    */
  def usedAfterGc(): Long = {
    System.gc(); Thread.sleep(200); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }
}

/** Scheduler counters for one operation: jobs, stages and task metrics as
  * the listener bus reports them. Register it with the context, `reset()`
  * before the operation and `record` after it.
  */
final class SparkCounters(sc: SparkContext, cores: Int) extends SparkListener {
  private var jobs, stages, tasks, failedTasks = 0L
  private var jobWallMs, firstJobWallMs, taskDurMs, taskRunMs, taskDeserMs, resultBytes, taskGcMs = 0L
  private val started = mutable.Map.empty[Int, Long]

  def reset(): Unit = synchronized {
    ListenerDrain(sc)
    jobs = 0; stages = 0; tasks = 0; failedTasks = 0
    jobWallMs = 0; firstJobWallMs = -1; taskDurMs = 0; taskRunMs = 0; taskDeserMs = 0
    resultBytes = 0; taskGcMs = 0
    started.clear()
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    jobs += 1
    started(e.jobId) = e.time
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    started.remove(e.jobId).foreach { t =>
      jobWallMs += e.time - t
      if (firstJobWallMs < 0) firstJobWallMs = e.time - t
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized { stages += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    tasks += 1
    if (e.reason != Success) failedTasks += 1
    taskDurMs += e.taskInfo.duration
    val m = e.taskMetrics
    if (m != null) {
      taskRunMs += m.executorRunTime
      taskDeserMs += m.executorDeserializeTime
      resultBytes += m.resultSize
      taskGcMs += m.jvmGCTime
    }
  }

  /** Job wall time in seconds of everything since `reset()`. */
  def jobWallS: Double = synchronized(jobWallMs / 1e3)

  /** Job wall time in seconds of every job but the first. */
  def laterJobsWallS: Double = synchronized((jobWallMs - math.max(0L, firstJobWallMs)) / 1e3)

  /** Drains the bus and records `spark.<name>.<op>` for everything since `reset()`. */
  def record(m: Metrics, op: String): Unit = {
    ListenerDrain(sc)
    synchronized {
      m(s"spark.jobs.$op") = (jobs.toDouble, "count")
      m(s"spark.stages.$op") = (stages.toDouble, "count")
      m(s"spark.tasks.$op") = (tasks.toDouble, "count")
      m(s"spark.failed_tasks.$op") = (failedTasks.toDouble, "count")
      m(s"spark.job_wall_s.$op") = (jobWallMs / 1e3, "s")
      m(s"spark.task_run_s.$op") = (taskRunMs / 1e3, "s")
      m(s"spark.task_deser_s.$op") = (taskDeserMs / 1e3, "s")
      m(s"spark.task_overhead_s.$op") = ((taskDurMs - taskRunMs) / 1e3, "s")
      m(s"spark.idle_core_s.$op") = ((jobWallMs * cores - taskDurMs) / 1e3, "s")
      m(s"spark.result_bytes.$op") = (resultBytes.toDouble, "bytes")
      m(s"spark.task_gc_s.$op") = (taskGcMs / 1e3, "s")
    }
  }
}

/** Minimal JSON rendering for the result lines. */
object Json {
  def render(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case d: Double =>
      require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
      d.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => quote(k.toString) + ": " + render(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_] => xs.iterator.map(render).mkString("[", ", ", "]")
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"' => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c => b += c
    }
    (b += '"').toString
  }
}
