package org.apache.spark

/** Spark keeps the listener-bus drain private to its own packages. The
  * benchmark needs it so that every task-end event of a span has reached the
  * tracer before the span's totals are read.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
