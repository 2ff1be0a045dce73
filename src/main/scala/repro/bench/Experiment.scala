package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.eval.Metrics
import repro.index.{ColumnKey, HybridIndex, IndexStrategy}
import repro.vis.AggOp

/** Effectiveness of one method on one query group. */
final case class MethodMetrics(method: String, prec: Double, ndcg: Double)

/** One row of the Table VIII index comparison. */
final case class IndexRow(
    strategy: String,
    prec: Double,
    ndcg: Double,
    timeMs: Long,
    avgCandidates: Double
)

/** The experiment harness: generates the benchmark, computes ground truth,
  * trains the FCM heads, runs every retrieval method through the
  * distributed `Engine` passes and assembles each paper table
  * (DESIGN.md §5). All state is lazy and cached, so bench suites and jobs
  * can share one instance per scale.
  */
final class Experiment(val spark: SparkSession, val cfg: BenchConfig) {

  val defaultCfg: FcmConfig = FcmConfig()

  lazy val bench: Bench = BenchData.generate(cfg)

  lazy val tablesDs: Dataset[BenchTable] = {
    val sp = spark
    import sp.implicits._
    // the local checkpoint cuts the lineage back to the driver-side rows, so
    // no later task ships its slice of the repository; the checkpointed
    // Dataset is persisted, so `Engine.rank` memoises its encodings
    val ds = sp.createDataset(bench.repo.toSeq).localCheckpoint().persist()
    ds.count() // materialise before any timed pass
    ds
  }

  // ---- ground truth ------------------------------------------------------

  lazy val gtMain: Map[Int, Array[Long]]  = GroundTruth.topK(spark, tablesDs, bench.queries, cfg.k)
  lazy val gtSweep: Map[Int, Array[Long]] = GroundTruth.topK(spark, tablesDs, bench.sweep, cfg.k)

  // ---- trained model variants -------------------------------------------

  def trainVariant(c: FcmConfig, nNeg: Int = 3): FcmConfig =
    c.withWeights(Training.trainHead(bench.trainPacks, c, nNeg, Training.NegStrategy.SemiHard))

  lazy val fcmCfg: FcmConfig      = trainVariant(defaultCfg)
  lazy val hcmanOffCfg: FcmConfig = trainVariant(defaultCfg.copy(useHcman = false))
  lazy val daOffCfg: FcmConfig    = trainVariant(defaultCfg.copy(useDa = false))

  // ---- rankings ----------------------------------------------------------

  private def ranked[Q, T](qs: Array[QueryPack], scorer: Scorer[Q, T]): Map[Int, Array[Long]] =
    Engine.rank(spark, tablesDs, qs, scorer)._1

  lazy val rankFcm: Map[Int, Array[Long]]      = ranked(bench.queries, Scorer.fcm(fcmCfg))
  lazy val rankFcmSweep: Map[Int, Array[Long]] = ranked(bench.sweep, Scorer.fcm(fcmCfg))
  lazy val rankHcmanOff: Map[Int, Array[Long]] = ranked(bench.queries, Scorer.fcm(hcmanOffCfg))
  lazy val rankDaOff: Map[Int, Array[Long]]    = ranked(bench.queries, Scorer.fcm(daOffCfg))
  lazy val rankCml: Map[Int, Array[Long]]      = ranked(bench.queries, Scorer.cml)
  lazy val rankQetch: Map[Int, Array[Long]]    = ranked(bench.queries, Scorer.qetch)
  lazy val rankDeLn: Map[Int, Array[Long]]     = ranked(bench.queries, Scorer.deln(cfg.chartW, cfg.chartH))
  lazy val rankOptLn: Map[Int, Array[Long]]    = ranked(bench.queries, Scorer.optLn(cfg.chartW, cfg.chartH))

  /** (name, rankings) in the paper's column order. */
  def methodRanks: Seq[(String, Map[Int, Array[Long]])] = Seq(
    "CML"    -> rankCml,
    "DE-LN"  -> rankDeLn,
    "Opt-LN" -> rankOptLn,
    "Qetch*" -> rankQetch,
    "FCM"    -> rankFcm
  )

  // ---- metrics -----------------------------------------------------------

  def metricsOf(
      rank: Map[Int, Array[Long]],
      qs: Seq[QueryPack],
      gt: Map[Int, Array[Long]]
  ): (Double, Double) = {
    val prec = qs.map(q => Metrics.precAtK(rank.getOrElse(q.qid, Array.empty[Long]).toSeq, gt(q.qid).toSet, cfg.k))
    val ndcg = qs.map(q => Metrics.ndcgAtK(rank.getOrElse(q.qid, Array.empty[Long]).toSeq, gt(q.qid).toSet, cfg.k))
    (Metrics.mean(prec), Metrics.mean(ndcg))
  }

  def queriesAll: Seq[QueryPack]       = bench.queries.toSeq
  def queriesWithDa: Seq[QueryPack]    = queriesAll.filter(_.isDa)
  def queriesWithoutDa: Seq[QueryPack] = queriesAll.filterNot(_.isDa)
  def queriesByBucket: Seq[(String, Seq[QueryPack])] =
    Seq("1", "2-4", "5-7", ">7").map(b => b -> queriesAll.filter(q => BenchData.mBucket(q.m) == b))

  // ---- paper tables ------------------------------------------------------

  /** Table I: benchmark statistics (counts by number of lines M). */
  def tableI(): Seq[(String, Map[String, Int])] = {
    val buckets = Seq("1", "2-4", "5-7", ">7")
    val qCounts = buckets.map(b => b -> queriesAll.count(q => BenchData.mBucket(q.m) == b)).toMap
    val rCounts =
      buckets.map(b => b -> bench.repo.count(t => BenchData.mBucket(t.specCols.length) == b)).toMap
    Seq("Query" -> qCounts, "Repository" -> rCounts)
  }

  /** Table II: overall / with-DA / without-DA effectiveness per method. */
  def tableII(): Seq[(String, Seq[MethodMetrics])] =
    Seq(
      "Overall"    -> queriesAll,
      "With DA"    -> queriesWithDa,
      "Without DA" -> queriesWithoutDa
    ).map { case (label, qs) =>
      label -> methodRanks.map { case (name, rank) =>
        val (p, n) = metricsOf(rank, qs, gtMain)
        MethodMetrics(name, p, n)
      }
    }

  /** Table III: effectiveness per line-count bucket, per method. */
  def tableIII(): Seq[(String, Seq[MethodMetrics])] =
    queriesByBucket.map { case (bucket, qs) =>
      bucket -> methodRanks.map { case (name, rank) =>
        val (p, n) = metricsOf(rank, qs, gtMain)
        MethodMetrics(name, p, n)
      }
    }

  /** Paper's window-size bucket label of Table IV. */
  def windowBucket(w: Int): String =
    if (w <= 10) "0-10"
    else if (w <= 40) "20-40"
    else if (w <= 60) "40-60"
    else if (w <= 80) "60-80"
    else "80-100"

  /** Table IV: FCM prec@k per (operator, window bucket) on the sweep. */
  def tableIV(): Map[(String, String), Double] = {
    bench.sweep
      .groupBy(q => (AggOp.byId(q.opId).name, windowBucket(q.window)))
      .map { case (key, qs) =>
        val (p, _) = metricsOf(rankFcmSweep, qs.toSeq, gtSweep)
        key -> p
      }
  }

  /** Table V: FCM vs FCM-HCMAN, overall and per bucket. */
  def tableV(): Seq[(String, MethodMetrics, MethodMetrics)] = {
    val groups = ("Overall" -> queriesAll) +: queriesByBucket
    groups.map { case (label, qs) =>
      val (pf, nf) = metricsOf(rankFcm, qs, gtMain)
      val (ph, nh) = metricsOf(rankHcmanOff, qs, gtMain)
      (label, MethodMetrics("FCM", pf, nf), MethodMetrics("FCM-HCMAN", ph, nh))
    }
  }

  /** Table VI: FCM vs FCM-DA, overall / with DA / without DA. */
  def tableVI(): Seq[(String, MethodMetrics, MethodMetrics)] =
    Seq(
      "Overall"    -> queriesAll,
      "With DA"    -> queriesWithDa,
      "Without DA" -> queriesWithoutDa
    ).map { case (label, qs) =>
      val (pf, nf) = metricsOf(rankFcm, qs, gtMain)
      val (pd, nd) = metricsOf(rankDaOff, qs, gtMain)
      (label, MethodMetrics("FCM", pf, nf), MethodMetrics("FCM-DA", pd, nd))
    }

  /** Table VII: overall prec@k over the P1 × P2 grid, head retrained per
    * config. Intended to be run on the reduced-scale experiment.
    */
  def tableVII(
      p1s: Seq[Int] = Seq(15, 30, 60, 120, 240),
      p2s: Seq[Int] = Seq(16, 32, 64, 128, 256)
  ): Map[(Int, Int), Double] = {
    (for { p1 <- p1s; p2 <- p2s } yield {
      val c    = trainVariant(defaultCfg.copy(p1 = p1, p2 = p2))
      val rank = ranked(bench.queries, Scorer.fcm(c))
      val (p, _) = metricsOf(rank, queriesAll, gtMain)
      (p1, p2) -> p
    }).toMap
  }

  // ---- indexing (Table VIII) --------------------------------------------

  lazy val index: HybridIndex = {
    val baseCfg = defaultCfg.copy(useDa = false) // pooled base segments only
    val keys = bench.repo.flatMap { t =>
      t.cols.indices.map { i =>
        val emb = DatasetEncoder.encodeColumn(i, t.cols(i), baseCfg)
        ColumnKey(t.id, i, emb.min, emb.max, emb.sum, emb.pooled)
      }
    }
    HybridIndex.build(keys.toIndexedSeq, bits = 14, flips = 2, seed = cfg.seed)
  }

  /** Table VIII: strategy → (prec, ndcg, time, avg candidate count). */
  def tableVIII(): Seq[IndexRow] = {
    val charts = bench.queries.map(q => q.qid -> ChartEncoder.encode(q.extracted, defaultCfg)).toMap
    // warm the JIT and encode the repository once, so every timed pass
    // reads the same cached encodings
    Engine.rank(spark, tablesDs, bench.queries.take(4), Scorer.fcm(fcmCfg))
    IndexStrategy.all.map { strat =>
      val t0 = System.nanoTime()
      val restrict: Map[Int, Set[Long]] = strat match {
        case IndexStrategy.NoIndex => Map.empty
        case _ =>
          bench.queries.map(q => q.qid -> index.candidates(strat, charts(q.qid))).toMap
      }
      val driverMs = (System.nanoTime() - t0) / 1000000L
      val (rank, passMs) = Engine.rank(spark, tablesDs, bench.queries, Scorer.fcm(fcmCfg), restrict)
      val (p, n) = metricsOf(rank, queriesAll, gtMain)
      val avgCand =
        if (restrict.isEmpty) bench.repo.length.toDouble
        else restrict.values.map(_.size).sum.toDouble / restrict.size
      IndexRow(IndexStrategy.name(strat), p, n, driverMs + passMs, avgCand)
    }
  }

  /** Table IX: effectiveness vs the number of negatives N⁻. */
  def tableIX(ns: Seq[Int] = 1 to 8): Seq[(Int, Double, Double)] =
    ns.map { n =>
      val c    = trainVariant(defaultCfg, nNeg = n)
      val rank = ranked(bench.queries, Scorer.fcm(c))
      val (p, nd) = metricsOf(rank, queriesAll, gtMain)
      (n, p, nd)
    }

  // ---- rendering ---------------------------------------------------------

  def fmt(d: Double): String = f"$d%.3f"

  def renderMethodTable(rows: Seq[(String, Seq[MethodMetrics])], metric: String): String = {
    val names  = rows.head._2.map(_.method)
    val header = ("%-12s".format("")) + names.map(n => "%-10s".format(n)).mkString
    val body = rows.flatMap { case (label, ms) =>
      val p = "%-12s".format(s"$label p") + ms.map(m => "%-10s".format(fmt(m.prec))).mkString
      val n = "%-12s".format(s"$label n") + ms.map(m => "%-10s".format(fmt(m.ndcg))).mkString
      Seq(p, n)
    }
    (header +: body).mkString("\n")
  }
}
