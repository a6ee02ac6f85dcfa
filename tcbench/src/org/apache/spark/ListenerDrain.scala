package org.apache.spark

/** Blocks until every queued scheduler event has reached its listeners.
  * Job, stage and task events are posted asynchronously, so a listener's
  * counters are complete only after the bus drains. `listenerBus` is
  * package-private, hence this object lives in Spark's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
