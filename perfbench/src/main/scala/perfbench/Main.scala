package perfbench

import java.io.{File, PrintWriter}

import org.apache.spark.sql.SparkSession
import repro.bench.BenchData

import scala.collection.mutable
import scala.util.Random

/** Benchmark entry point: one workload, one seed, one JVM.
  *
  * {{{
  * perfbench.Main --workload search-da|search-plain|label-gt --seed N
  *                --seconds S --trace 0|1 --cores C --out DIR
  *                [--git-sha SHA] [--source-digest HEX]
  * }}}
  *
  * Prints the metrics by name with their units, then, as the last line, one
  * JSON object: `correct`, `attempted`, `failed` and `metrics` (end-to-end
  * metrics with `--trace 0`, per-layer metrics with `--trace 1`).
  */
object Main {

  final case class Settings(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      cores: Int,
      out: File,
      gitSha: String,
      sourceDigest: String
  )

  /** Set-ups per run; `setup_s` is their median. */
  val SetupReps = 5

  /** Seconds of the workload's own loop run untimed before timing, so the
    * JIT has compiled the per-query path and not only the scoring code.
    * search-plain's latency is mostly Spark's per-job driver path, which
    * kept getting faster for about 200 queries; search-da and label-gt
    * level off after one cycle of their queries.
    */
  def warmupSeconds(workload: String): Double = workload match {
    case "search-plain" => 12.0
    case "search-da"    => 6.0
    case _              => 3.0
  }

  /** Search loops time at least this many queries, so p90 has at least ten
    * samples beyond it.
    */
  val MinSamples = 100

  /** label-gt times at least this many ground-truth passes; its per-query
    * percentiles are taken over the passes.
    */
  val MinPasses = 8

  def parse(argv: Array[String]): Settings = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = need("workload")
    require(Workloads.Names.contains(workload), s"unknown workload $workload; one of ${Workloads.Names.mkString(", ")}")
    val trace = need("trace")
    require(trace == "0" || trace == "1", "--trace takes 0 or 1")
    Settings(
      workload, need("seed").toLong, need("seconds").toDouble, trace == "1", need("cores").toInt,
      new File(need("out")), kv.getOrElse("git-sha", "none"), kv.getOrElse("source-digest", "none")
    )
  }

  def main(argv: Array[String]): Unit = {
    val s =
      try parse(argv)
      catch { case e: Exception => System.err.println(s"perfbench: ${e.getMessage}"); sys.exit(2) }
    s.out.mkdirs()
    val spark = SparkSession.builder()
      .master(s"local[${s.cores}]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", (2 * s.cores).toString)
      .config("spark.local.dir", new File(s.out, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(s.out, "spark-warehouse").getAbsolutePath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val line =
      try run(spark, s)
      finally spark.stop()
    println(line)
  }

  private val started = System.nanoTime()

  /** Progress on standard error, with seconds since the JVM's run started. */
  def log(msg: String): Unit = System.err.println(f"perfbench [${(System.nanoTime() - started) / 1e9}%6.1f s] $msg")

  private def heapAfterGcMb(): Double = {
    val rt = Runtime.getRuntime
    System.gc()
    System.gc()
    (rt.totalMemory() - rt.freeMemory()) / 1048576.0
  }

  def run(spark: SparkSession, s: Settings): String = {
    val (bench, generateS) = Stats.secs(BenchData.generate(spark, Workloads.benchConfig(s.seed)))
    val queries = Workloads.queries(bench, s.workload, s.seed)
    log(s"generated ${bench.repo.length} tables, ${queries.length} ${s.workload} queries")

    val setups = (1 to SetupReps).map { i =>
      val r = Workloads.setup(spark, bench, s.workload)
      if (i < SetupReps) r._1.tables.unpersist(blocking = true)
      r
    }
    val served = setups.last._1
    val setupS = Stats.median(setups.map(_._2.total))
    val heapMb = heapAfterGcMb()

    val gate    = new Gate
    val run     = WorkloadRun(spark, s.cores, s.workload, bench, queries, served, gate)
    val pick    = new Random(s.seed).nextInt(queries.length)
    val metrics = mutable.ArrayBuffer.empty[Metric]
    val info    = mutable.LinkedHashMap.empty[String, Any]
    val tracers = mutable.ArrayBuffer.empty[(String, Tracer)]
    var probeTable = ""

    log(f"set up $SetupReps times, median $setupS%.3f s")
    run.prepare()
    run.loop(warmupSeconds(s.workload), 1, new Tracer(false), wholeCycles = false)
    log("verified every query's ranking and warmed up outside the timed loop")
    if (!s.trace) {
      val minSamples = if (run.queriesPerOp == 1) MinSamples else MinPasses
      val (opMs, wall) = run.loop(s.seconds, minSamples, new Tracer(false))
      log(s"timed ${opMs.length} operations")
      run.repartitionCheck(pick)
      val (prec, ndcg) = run.quality()
      log("quality measured")
      val perQuery = opMs.map(_ / run.queriesPerOp)
      metrics ++= Seq(
        Metric("setup_s", setupS, "s"),
        Metric("query_ms_p50", Stats.quantile(perQuery, 0.5), "ms"),
        Metric("query_ms_p90", Stats.quantile(perQuery, 0.9), "ms"),
        Metric("qps", opMs.length * run.queriesPerOp / wall, "1/s"),
        Metric("prec_at_k", prec, "frac"),
        Metric("ndcg_at_k", ndcg, "frac"),
        Metric("heap_mb", heapMb, "MB")
      )
      info ++= Seq("timed_ops" -> opMs.length, "percentile_samples" -> perQuery.length, "loop_s" -> wall, "op_ms" -> opMs.toSeq)
    } else {
      // Untraced then traced halves of the same loop; the difference of
      // their median operation times is the tracing overhead.
      val (plainMs, _) = run.loop(s.seconds / 2, 1, new Tracer(false))
      val loopTr = new Tracer(true)
      val acct   = new TaskAccounting
      spark.sparkContext.addSparkListener(acct)
      val (tracedMs, wall) = run.loop(s.seconds / 2, 1, loopTr)
      acct.drain(tracedMs.length)
      spark.sparkContext.removeSparkListener(acct)
      log(s"timed ${plainMs.length} untraced and ${tracedMs.length} traced operations")
      run.repartitionCheck(pick)
      tracers += ("loop" -> loopTr)

      val (busy, skew, schedMs, tasksPerPass) = acct.summary(wall * 1000, s.cores)
      val overhead = Stats.median(tracedMs) - Stats.median(plainMs)
      val self     = loopTr.selfNs
      metrics ++= Seq(
        Metric("bench.generate_s", generateS, "s"),
        Metric("bench.core_busy_frac", busy, "frac"),
        Metric("bench.task_skew", skew, "ratio"),
        Metric("bench.sched_delay_ms", schedMs, "ms"),
        Metric("bench.tasks_per_pass", tasksPerPass, "count"),
        Metric("bench.trace_overhead_ms", overhead, "ms"),
        Metric("bench.trace_overhead_frac", overhead / Stats.median(plainMs), "frac"),
        Metric("self.loop.query_ms", self.getOrElse("query", 0L) / 1e6 / tracedMs.length, "ms"),
        Metric("self.loop.pass_ms", self.getOrElse("pass", 0L) / 1e6 / tracedMs.length, "ms")
      )
      info ++= Seq(
        "untraced_ops" -> plainMs.length, "traced_ops" -> tracedMs.length,
        "loop_self_ms_per_op" -> self.map { case (n, ns) => n -> ns / 1e6 / tracedMs.length }
      )
      tracers ++= Layers.run(spark, bench, queries, served, run.reference, s.seed, metrics)
      log("layer section done")
      probeTable = Probe.run(s.seed, metrics)
      log("fixed-shape probe done")
    }

    val smoke   = Smoke.run(spark, s.cores, s.seed)
    log("toy-scale smoke run done")
    val correct = gate.failed == 0 && smoke.values.forall(_ == "ok")
    val stamp = mutable.LinkedHashMap[String, Any](
      "workload" -> s.workload, "seed" -> s.seed, "seconds" -> s.seconds, "trace" -> s.trace,
      "git_sha" -> s.gitSha, "source_digest" -> s.sourceDigest,
      "nproc" -> Runtime.getRuntime.availableProcessors, "spark_master" -> spark.sparkContext.master,
      "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
      "repo_tables" -> bench.repo.length, "repo_columns" -> bench.repo.map(_.cols.length).sum,
      "main_queries" -> bench.queries.length, "sweep_queries" -> bench.sweep.length,
      "workload_queries" -> queries.length, "train_packs" -> bench.trainPacks.length,
      "query_lines" -> queries.map(_.pack.underlyingPrepared.length).sum,
      "query_line_points" -> queries.map(_.pack.underlyingPrepared.map(_.length).sum).sum,
      "k" -> run.k, "setup_reps" -> SetupReps, "setup_s_each" -> setups.map(_._2.total),
      "train_s_each" -> setups.map(_._2.train), "generate_s" -> generateS,
      "smoke" -> smoke.toMap
    ) ++ info

    report(s, stamp, metrics.toSeq, gate, correct, probeTable, tracers.toSeq)
  }

  /** Prints the human-readable report, writes the result and span files, and
    * returns the JSON result line.
    */
  private def report(
      s: Settings,
      stamp: collection.Map[String, Any],
      metrics: Seq[Metric],
      gate: Gate,
      correct: Boolean,
      probeTable: String,
      tracers: Seq[(String, Tracer)]
  ): String = {
    val stampJson = Json.obj(stamp.toSeq: _*)
    println(s"stamp $stampJson")
    if (probeTable.nonEmpty) print(probeTable)
    metrics.foreach(m => println(f"  ${m.name}%-32s ${m.value}%14.4f ${m.unit}"))
    val errorRate = gate.failed.toDouble / math.max(1, gate.attempted)
    println(f"  ${"error_rate"}%-32s ${errorRate}%14.4f frac (${gate.failed} of ${gate.attempted} operations failed)")
    gate.failures.foreach(f => println(s"  FAILED: $f"))

    val result = Json.obj(
      "correct" -> correct,
      "attempted" -> gate.attempted,
      "failed" -> gate.failed,
      "metrics" -> metrics.map(m => m.name -> Map("value" -> m.value, "unit" -> m.unit)).toMap
    )
    val base = new File(s.out, s"${s.workload}-seed${s.seed}-trace${if (s.trace) 1 else 0}")
    write(new File(base.getPath + ".json"), Iterator(s"""{"stamp": $stampJson, "result": $result}"""))
    if (tracers.nonEmpty) write(new File(base.getPath + "-spans.jsonl"), tracers.iterator.flatMap { case (n, t) => t.jsonLines(n) })
    result
  }

  private def write(f: File, lines: Iterator[String]): Unit = {
    val w = new PrintWriter(f, "UTF-8")
    try lines.foreach(w.println)
    finally w.close()
  }
}

/** Toy-scale smoke pass over all three workloads, with every gate on, so
  * that a broken workload shows in every result.
  */
object Smoke {
  def run(spark: SparkSession, cores: Int, seed: Long): Map[String, String] = {
    val bench = BenchData.generate(spark, Workloads.toyConfig(seed))
    Workloads.Names.map { w =>
      w -> (try {
        val queries     = Workloads.queries(bench, w, seed).take(2)
        val (served, _) = Workloads.setup(spark, bench, w)
        val gate        = new Gate
        val run         = WorkloadRun(spark, cores, w, bench, queries, served, gate)
        run.prepare()
        run.loop(0, 1, new Tracer(false))
        run.repartitionCheck(0)
        run.quality()
        served.tables.unpersist()
        if (gate.failed == 0) "ok" else s"failed ${gate.failed} of ${gate.attempted}: ${gate.failures.mkString("; ")}"
      } catch { case e: Exception => s"error: $e" })
    }.toMap
  }
}
