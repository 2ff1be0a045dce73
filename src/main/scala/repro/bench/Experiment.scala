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

  def queriesAll: Seq[QueryPack] = bench.queries.toSeq
  def queriesByBucket: Seq[(String, Seq[QueryPack])] =
    BenchData.mBuckets.map(b => b -> queriesAll.filter(q => BenchData.mBucket(q.m) == b))

  /** The query groups of Tables II and VI. */
  def queriesByDa: Seq[(String, Seq[QueryPack])] =
    Seq("Overall" -> queriesAll, "With DA" -> queriesAll.filter(_.isDa), "Without DA" -> queriesAll.filterNot(_.isDa))

  // ---- paper tables ------------------------------------------------------

  /** Table I: benchmark statistics (counts by number of lines M). */
  def tableI(): Seq[(String, Map[String, Int])] = {
    def counts(ms: Seq[Int]) = BenchData.mBuckets.map(b => b -> ms.count(m => BenchData.mBucket(m) == b)).toMap
    Seq("Query" -> counts(queriesAll.map(_.m)), "Repository" -> counts(bench.repo.toSeq.map(_.specCols.length)))
  }

  /** Every method's effectiveness per query group. */
  private def methodTable(groups: Seq[(String, Seq[QueryPack])]): Seq[(String, Seq[MethodMetrics])] =
    groups.map { case (label, qs) =>
      label -> methodRanks.map { case (name, rank) =>
        val (p, n) = metricsOf(rank, qs, gtMain)
        MethodMetrics(name, p, n)
      }
    }

  /** Table II: overall / with-DA / without-DA effectiveness per method. */
  def tableII(): Seq[(String, Seq[MethodMetrics])] = methodTable(queriesByDa)

  /** Table III: effectiveness per line-count bucket, per method. */
  def tableIII(): Seq[(String, Seq[MethodMetrics])] = methodTable(queriesByBucket)

  /** The paper's window-size buckets of Table IV, in its order. */
  val windowBuckets: Seq[String] = Seq("0-10", "20-40", "40-60", "60-80", "80-100")

  /** Bucket label of `windowBuckets` for an aggregation window. */
  def windowBucket(w: Int): String =
    windowBuckets(if (w <= 10) 0 else if (w <= 40) 1 else if (w <= 60) 2 else if (w <= 80) 3 else 4)

  /** Table IV: FCM prec@k per (operator, window bucket) on the sweep. */
  def tableIV(): Map[(String, String), Double] = {
    bench.sweep
      .groupBy(q => (AggOp.byId(q.opId).name, windowBucket(q.window)))
      .map { case (key, qs) =>
        val (p, _) = metricsOf(rankFcmSweep, qs.toSeq, gtSweep)
        key -> p
      }
  }

  /** FCM's and one ablated variant's effectiveness per query group. */
  private def variantTable(
      groups: Seq[(String, Seq[QueryPack])],
      variant: String,
      rank: Map[Int, Array[Long]]
  ): Seq[(String, MethodMetrics, MethodMetrics)] =
    groups.map { case (label, qs) =>
      val (pf, nf) = metricsOf(rankFcm, qs, gtMain)
      val (pv, nv) = metricsOf(rank, qs, gtMain)
      (label, MethodMetrics("FCM", pf, nf), MethodMetrics(variant, pv, nv))
    }

  /** Table V: FCM vs FCM-HCMAN, overall and per bucket. */
  def tableV(): Seq[(String, MethodMetrics, MethodMetrics)] =
    variantTable(("Overall" -> queriesAll) +: queriesByBucket, "FCM-HCMAN", rankHcmanOff)

  /** Table VI: FCM vs FCM-DA, overall / with DA / without DA. */
  def tableVI(): Seq[(String, MethodMetrics, MethodMetrics)] = variantTable(queriesByDa, "FCM-DA", rankDaOff)

  /** Overall (prec, ndcg) of FCM under `c`, with a head retrained on `nNeg` negatives. */
  private def retrainedMetrics(c: FcmConfig, nNeg: Int = 3): (Double, Double) =
    metricsOf(ranked(bench.queries, Scorer.fcm(trainVariant(c, nNeg))), queriesAll, gtMain)

  /** Table VII: overall prec@k over the P1 × P2 grid, head retrained per
    * config. Intended to be run on the reduced-scale experiment.
    */
  def tableVII(
      p1s: Seq[Int] = Seq(15, 30, 60, 120, 240),
      p2s: Seq[Int] = Seq(16, 32, 64, 128, 256)
  ): Map[(Int, Int), Double] =
    (for { p1 <- p1s; p2 <- p2s } yield (p1, p2) -> retrainedMetrics(defaultCfg.copy(p1 = p1, p2 = p2))._1).toMap

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
      val (p, nd) = retrainedMetrics(defaultCfg, n)
      (n, p, nd)
    }

  // ---- rendering ---------------------------------------------------------
  //
  // One function per paper table. The jobs and the bench suites print what
  // these return under their own titles.

  private def fmt(d: Double): String = f"$d%.3f"

  /** Lines of left-aligned cells, cell i padded to `widths(i)` (the last width repeats). */
  private def grid(widths: Seq[Int], lines: Seq[Seq[String]]): String =
    lines.map(_.zipWithIndex.map { case (c, i) => s"%-${widths(math.min(i, widths.length - 1))}s".format(c) }.mkString)
      .mkString("\n")

  /** Width of a label column: `min`, or two more than the longest label. */
  private def labelWidth(labels: Seq[String], min: Int): Int = (min +: labels.map(_.length + 2)).max

  /** Table I: per population, its total and its count in each M bucket. */
  def renderTableI(rows: Seq[(String, Map[String, Int])]): String =
    grid(Seq(12, 8), ("" +: "Overall" +: BenchData.mBuckets) +: rows.map { case (who, counts) =>
      who +: (counts.values.sum +: BenchData.mBuckets.map(counts)).map(_.toString)
    })

  /** Tables II and III: a prec line and an ndcg line per group, a column per method. */
  def renderMethodTable(rows: Seq[(String, Seq[MethodMetrics])]): String = {
    val body = rows.flatMap { case (label, ms) =>
      Seq(s"$label p" +: ms.map(m => fmt(m.prec)), s"$label n" +: ms.map(m => fmt(m.ndcg)))
    }
    grid(Seq(labelWidth(body.map(_.head), 12), 10), ("" +: rows.head._2.map(_.method)) +: body)
  }

  /** Table IV: a line per operator, a column per window bucket; "-" for an empty cell. */
  def renderTableIV(t: Map[(String, String), Double]): String =
    grid(Seq(6, 10), ("" +: windowBuckets) +: Seq("min", "max", "sum", "avg").map { op =>
      op +: windowBuckets.map(b => t.get((op, b)).map(fmt).getOrElse("-"))
    })

  /** Table V: FCM and FCM-HCMAN per M bucket. */
  def renderTableV(rows: Seq[(String, MethodMetrics, MethodMetrics)]): String =
    renderVariantTable(rows, "M", "HCMAN-")

  /** Table VI: FCM and FCM-DA per query group. */
  def renderTableVI(rows: Seq[(String, MethodMetrics, MethodMetrics)]): String =
    renderVariantTable(rows, "Queries", "FCM-DA")

  /** FCM's prec and ndcg beside a variant's, a line per group. */
  private def renderVariantTable(
      rows: Seq[(String, MethodMetrics, MethodMetrics)],
      corner: String,
      variant: String
  ): String =
    grid(
      Seq(labelWidth(rows.map(_._1), 10), 10, 10, 12),
      Seq(corner, "FCM p", "FCM n", s"$variant p", s"$variant n") +: rows.map { case (label, f, v) =>
        Seq(label, fmt(f.prec), fmt(f.ndcg), fmt(v.prec), fmt(v.ndcg))
      }
    )

  /** Table VII: a line per P1, a column per P2. */
  def renderTableVII(t: Map[(Int, Int), Double]): String = {
    val p1s = t.keys.map(_._1).toSeq.distinct.sorted
    val p2s = t.keys.map(_._2).toSeq.distinct.sorted
    grid(Seq(8, 10), ("P1\\P2" +: p2s.map(_.toString)) +: p1s.map(p1 => p1.toString +: p2s.map(p2 => fmt(t((p1, p2))))))
  }

  /** Table VIII: a line per index strategy. */
  def renderTableVIII(rows: Seq[IndexRow]): String =
    grid(Seq(16, 10, 10, 12, 14), Seq("Strategy", "prec", "ndcg", "query ms", "avg cands") +: rows.map { r =>
      Seq(r.strategy, fmt(r.prec), fmt(r.ndcg), r.timeMs.toString, f"${r.avgCandidates}%.1f")
    })

  /** Table IX: a column per N⁻, under a prec line and an ndcg line. */
  def renderTableIX(rows: Seq[(Int, Double, Double)]): String =
    grid(Seq(8), Seq("N-" +: rows.map(_._1.toString), "prec" +: rows.map(r => fmt(r._2)), "ndcg" +: rows.map(r => fmt(r._3))))
}
