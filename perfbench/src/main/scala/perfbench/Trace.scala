package perfbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable

/** One timed interval of a traced run. `parent` is -1 for a root span; the
  * spans of one operation (a query, a replayed pair) share `op`.
  */
final case class Span(id: Int, parent: Int, op: Int, name: String, startNs: Long, endNs: Long) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans are recorded from the benchmark's own code
  * around calls into the program's public functions, and written out when the
  * run ends. A disabled tracer runs each body and records nothing.
  */
final class Tracer(val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  var op = 0

  def span[A](name: String)(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      val t0 = System.nanoTime()
      try body
      finally {
        spans += Span(id, parent, op, name, t0, System.nanoTime())
        open = open.tail
      }
    }

  /** Total self time (ns) per span name: each span's duration minus the part
    * its children cover. Children of one span run one after another, so the
    * covered part is the sum of their durations.
    */
  def selfNs: Map[String, Long] = {
    val covered = new Array[Long](nextId)
    spans.foreach(s => if (s.parent >= 0) covered(s.parent) += s.durNs)
    spans.groupBy(_.name).map { case (n, ss) => n -> ss.iterator.map(s => s.durNs - covered(s.id)).sum }
  }

  /** Total duration (ns) of the spans named `name`, per operation. */
  def nsByOp(name: String): Map[Int, Long] =
    spans.iterator.filter(_.name == name).toSeq.groupBy(_.op).map { case (o, ss) => o -> ss.iterator.map(_.durNs).sum }

  /** Spans as JSON lines, times in µs from the first span's start. */
  def jsonLines(tracer: String): Iterator[String] = {
    val base = if (spans.isEmpty) 0L else spans.iterator.map(_.startNs).min
    spans.iterator.map { s =>
      Json.obj(
        "tracer" -> tracer, "id" -> s.id, "parent" -> s.parent, "op" -> s.op, "name" -> s.name,
        "start_us" -> (s.startNs - base) / 1e3, "end_us" -> (s.endNs - base) / 1e3
      )
    }
  }
}

/** Spark task accounting for the traced loop: task run time, scheduler delay
  * and tasks per job. Registered only while a traced loop runs.
  */
final class TaskAccounting extends SparkListener {
  private val runMsByStage = mutable.Map.empty[(Int, Int), mutable.ArrayBuffer[Long]]
  private var tasks = 0L
  private var runMs = 0L
  private var schedMs = 0L
  private var jobsStarted = 0
  private var jobsEnded = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized { jobsStarted += 1 }
  override def onJobEnd(e: SparkListenerJobEnd): Unit     = synchronized { jobsEnded += 1 }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val info = e.taskInfo
    val m    = e.taskMetrics
    val run  = if (m == null) 0L else m.executorRunTime
    val overhead =
      if (m == null) 0L else m.executorDeserializeTime + m.resultSerializationTime
    val fetch = if (info.gettingResult) info.finishTime - info.gettingResultTime else 0L
    tasks += 1
    runMs += run
    schedMs += math.max(0L, info.duration - run - overhead - fetch)
    runMsByStage.getOrElseUpdate((e.stageId, e.stageAttemptId), mutable.ArrayBuffer.empty) += run
  }

  /** Wait until the listener bus has delivered every job it started. */
  def drain(minJobs: Int, timeoutMs: Long = 10000L): Unit = {
    val until = System.currentTimeMillis() + timeoutMs
    def done = synchronized(jobsEnded >= minJobs && jobsEnded == jobsStarted)
    while (!done && System.currentTimeMillis() < until) Thread.sleep(20)
  }

  /** (core busy fraction, median task skew, mean scheduler delay ms, tasks per job). */
  def summary(wallMs: Double, cores: Int): (Double, Double, Double, Double) = synchronized {
    val skews = runMsByStage.values.filter(_.length >= 2).flatMap { rs =>
      val mean = rs.sum.toDouble / rs.length
      if (mean > 0) Some(rs.max / mean) else None
    }.toArray
    (
      runMs / (wallMs * cores),
      if (skews.isEmpty) 1.0 else Stats.median(skews),
      if (tasks == 0) 0.0 else schedMs.toDouble / tasks,
      if (jobsEnded == 0) 0.0 else tasks.toDouble / jobsEnded
    )
  }
}
