package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.{ListenerDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Spans around the benchmark's calls into the program's layers.
  *
  * Each span runs its body under a Spark job group named after the span; the
  * listener attributes every job, and every task of that job's stages, to the
  * group that was set when the job started. A span therefore reports its wall
  * time, the executor run time of its tasks, its job count and the shuffle
  * bytes its tasks wrote. Spans are flat: a name may be entered many times and
  * its totals add up.
  */
final class Tracer(sc: SparkContext) extends SparkListener {

  final class Totals {
    var calls = 0
    var wallNs = 0L
    var taskMs = 0L
    var jobs = 0
    var shuffleBytes = 0L
    var rows = 0L
    val callNs = mutable.ArrayBuffer.empty[Long]
  }

  private val GroupKey = "spark.jobGroup.id"
  private val stageSpan = new ConcurrentHashMap[Int, String]()
  private val totals = mutable.LinkedHashMap.empty[String, Totals]

  private def totalsOf(name: String): Totals = totals.synchronized(totals.getOrElseUpdate(name, new Totals))

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(GroupKey))).foreach { span =>
      val t = totalsOf(span)
      t.synchronized(t.jobs += 1)
      e.stageIds.foreach(stageSpan.put(_, span))
    }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    for (span <- Option(stageSpan.get(e.stageId)); m <- Option(e.taskMetrics)) {
      val t = totalsOf(span)
      t.synchronized {
        t.taskMs += m.executorRunTime
        t.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }

  /** Runs `body` as one call of span `name`. */
  def span[T](name: String)(body: => T): T = {
    sc.setJobGroup(name, name, interruptOnCancel = false)
    val t0 = System.nanoTime()
    try body
    finally {
      val ns = System.nanoTime() - t0
      sc.clearJobGroup()
      val t = totalsOf(name)
      t.synchronized { t.calls += 1; t.wallNs += ns; t.callNs += ns }
    }
  }

  /** Adds `n` output rows to span `name`. */
  def rows(name: String, n: Long): Unit = { val t = totalsOf(name); t.synchronized(t.rows += n) }

  /** Totals per span, in first-entered order, once every event has arrived. */
  def snapshot(): Seq[(String, Totals)] = {
    ListenerDrain(sc)
    totals.synchronized(totals.toSeq)
  }
}
