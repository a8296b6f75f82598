package repro.perfbench

import scala.collection.mutable
import org.apache.spark.Success
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener

/** Spans recorded around the benchmark's calls into the program.
  *
  * With tracing off every method is a pass-through: no span, no local
  * property, no listener, so the untraced run measures the program alone.
  * With tracing on, each span tags the Spark jobs it starts through the
  * `perfbench.span` local property; [[SparkProbe]] attributes job, stage and
  * task figures to that tag. Spans stay in memory until the run ends.
  */
final class Tracer(spark: SparkSession, val enabled: Boolean) {
  import Tracer._

  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil
  private var request = "setup"
  private val counters = mutable.LinkedHashMap.empty[String, Double]
  val probe: Option[SparkProbe] = if (enabled) Some(new SparkProbe) else None

  probe.foreach { p =>
    spark.sparkContext.addSparkListener(p)
    spark.listenerManager.register(p)
  }

  /** Run `body` with every span inside it sharing the request id `id`. */
  def request[T](id: String)(body: => T): T = {
    val outer = request
    request = id
    try body finally request = outer
  }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val s = Span(spans.size + 1, name, stack.headOption.fold(0)(_.id), request, nowMs(), Double.NaN)
      spans += s
      stack = s :: stack
      spark.sparkContext.setLocalProperty(SpanKey, s.id.toString)
      try body
      finally {
        s.endMs = nowMs()
        stack = stack.tail
        spark.sparkContext.setLocalProperty(SpanKey, stack.headOption.map(_.id.toString).orNull)
      }
    }

  /** Record a count; later values for the same name are added up. */
  def count(name: String, v: Double): Unit =
    if (enabled) counters(name) = counters.getOrElse(name, 0.0) + v

  def countsJson: Map[String, Any] = counters.toMap

  def spansJson: Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "name" -> s.name, "parent" -> s.parent, "request" -> s.request,
      "start_ms" -> s.startMs, "end_ms" -> s.endMs)
  }
}

object Tracer {
  val SpanKey = "perfbench.span"

  final case class Span(id: Int, name: String, parent: Int, request: String,
                        startMs: Double, var endMs: Double)

  // Wall clock with sub-millisecond resolution, on the same epoch as the
  // millisecond timestamps Spark puts on job and planning events.
  private val epochMs0 = System.currentTimeMillis().toDouble
  private val nano0 = System.nanoTime()
  def nowMs(): Double = epochMs0 + (System.nanoTime() - nano0) / 1e6
}

/** Spark-side figures per span tag: job intervals, stage and task counts,
  * task metrics, and Catalyst planning phases. Listener callbacks arrive on
  * the listener-bus threads, hence the synchronisation; read the figures
  * only after `SparkSession.stop()`, which drains the bus.
  */
final class SparkProbe extends SparkListener with QueryExecutionListener {

  final class Agg {
    var jobs, stages, tasks, taskFailures = 0L
    var runMs, cpuNs, gcMs, shuffleRead, shuffleWrite, spill = 0L
  }

  private val agg = mutable.Map.empty[Int, Agg]
  private val jobSpan = mutable.Map.empty[Int, Int]
  private val jobStart = mutable.Map.empty[Int, Long]
  private val jobEnd = mutable.Map.empty[Int, Long]
  private val stageSpan = mutable.Map.empty[Int, Int]
  private val plans = mutable.ArrayBuffer.empty[(Long, Long)]

  private def of(span: Int): Agg = agg.getOrElseUpdate(span, new Agg)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
      .fold(0)(_.toInt)
    jobSpan(e.jobId) = span
    jobStart(e.jobId) = e.time
    e.stageIds.foreach(stageSpan(_) = span)
    of(span).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobEnd(e.jobId) = e.time
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    of(stageSpan.getOrElse(e.stageInfo.stageId, 0)).stages += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val a = of(stageSpan.getOrElse(e.stageId, 0))
    a.tasks += 1
    if (e.reason != Success) a.taskFailures += 1
    val m = e.taskMetrics
    if (m != null) {
      a.runMs += m.executorRunTime
      a.cpuNs += m.executorCpuTime
      a.gcMs += m.jvmGCTime
      a.shuffleRead += m.shuffleReadMetrics.totalBytesRead
      a.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      a.spill += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  private def recordPlan(qe: QueryExecution): Unit = synchronized {
    qe.tracker.phases.values.foreach(p => plans += ((p.startTimeMs, p.endTimeMs)))
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = recordPlan(qe)
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = recordPlan(qe)

  def json: Map[String, Any] = synchronized {
    Map(
      "jobs" -> jobSpan.keys.toSeq.sorted.map { j =>
        Map("id" -> j, "span" -> jobSpan(j), "start_ms" -> jobStart(j),
          "end_ms" -> jobEnd.getOrElse(j, jobStart(j)))
      },
      "per_span" -> agg.map { case (span, a) =>
        span.toString -> Map(
          "jobs" -> a.jobs, "stages" -> a.stages, "tasks" -> a.tasks,
          "task_failures" -> a.taskFailures, "executor_run_ms" -> a.runMs,
          "executor_cpu_ns" -> a.cpuNs, "gc_ms" -> a.gcMs,
          "shuffle_read_bytes" -> a.shuffleRead, "shuffle_write_bytes" -> a.shuffleWrite,
          "spill_bytes" -> a.spill)
      }.toMap,
      // Planning phases carry their own timestamps; they are attributed to
      // spans by time, since a frame may be analysed in one span and
      // optimised and planned when an action runs in another.
      "plan_phases" -> plans.toSeq.map { case (s, e) => Seq(s, e) },
    )
  }
}
