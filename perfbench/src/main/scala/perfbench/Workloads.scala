package perfbench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bench._
import repro.core._
import repro.eval.Metrics
import repro.index.{ColumnKey, HybridIndex, IndexStrategy}
import repro.vis._

import scala.collection.mutable
import scala.util.Random

/** A query as a user sends it: the rendered chart image, plus the benchmark's
  * pack for it (query id, source table, prepared underlying data for the
  * ground truth). The search path sees only the image.
  */
final case class Query(pack: QueryPack, image: ChartImage)

/** The system after set-up: the persisted repository, the trained head of
  * the workload's FCM variant and the index, where the workload uses them.
  */
final case class Served(tables: Dataset[BenchTable], head: Option[FcmConfig], index: Option[HybridIndex])

/** Set-up cost of one set-up, in seconds per step. */
final case class SetupTimes(load: Double, train: Double, index: Double) {
  def total: Double = load + train + index
}

/** Counts every ranking the run produces and every gate it fails. */
final class Gate {
  var attempted = 0
  var failed    = 0
  val failures  = mutable.ArrayBuffer.empty[String]

  /** Run one operation; an exception or a false result counts as a failure. */
  def op(what: => String)(check: => Boolean): Boolean = {
    attempted += 1
    val (ok, why) =
      try (check, "")
      catch { case e: Exception => (false, s": $e") }
    if (!ok) {
      failed += 1
      if (failures.length < 20) failures += what + why
    }
    ok
  }
}

/** Workload inputs, set-up and the timed loops. Every input is derived from
  * the seed; the program receives only the generated repository and queries.
  */
object Workloads {

  val Names: Seq[String] = Seq("search-da", "search-plain", "label-gt")

  /** Repository and query sizes: 12 base tables + 20 query tables (40 main
    * queries, Table I line-count mix, half DA) + 1 noise copy each = 52
    * tables. Charts are 480×160 with 512-row query tables (8 line segments
    * = 8 data segments at P1=60/P2=64). Forty queries put four tables with
    * M ≥ 8 behind p90; with fewer, p90 hangs on one or two tables and swings
    * with the seed. The small repository keeps 120 DA queries (three cycles)
    * near 10 s on two cores.
    */
  def benchConfig(seed: Long): BenchConfig =
    BenchConfig(
      nRepoBase = 12, nTrain = 24, nQueryTables = 20, noisePerQuery = 1, k = 10,
      queryRows = 512, sweepTables = 1, sweepWindows = Seq(5, 30, 50, 70, 90),
      seed = seed, chartW = 480, chartH = 160, tpchSf = 0.002
    )

  /** Top-k of a workload's rankings and labels. search-plain, whose queries
    * all come from a table with noise copies, is scored at k = family size
    * (source + copies); its prec@10 would mostly measure near-ties among
    * unrelated tables and swing with the seed.
    */
  def k(bench: Bench, workload: String): Int =
    if (workload == "search-plain") 1 + bench.cfg.noisePerQuery else bench.cfg.k

  /** Toy scale for the per-run smoke pass over all three workloads. */
  def toyConfig(seed: Long): BenchConfig =
    BenchConfig(6, 4, 2, 2, 5, 256, 1, Seq(5), seed, 480, 160, 0.001)

  /** Extra plain queries search-plain draws from the noise copies, so that
    * each has its family (source and sibling copies) in the repository.
    */
  val ExtraPlainQueries = 20

  /** The chart image a main or sweep query was generated from. */
  def imageOf(bench: Bench, q: QueryPack): ChartImage = {
    val t = bench.repo(q.sourceTable.toInt)
    require(t.id == q.sourceTable, "repository ids are dense")
    val cols = if (q.m == t.specCols.length) t.specCols.toVector else Vector(t.specCols(0))
    val agg  = if (q.isDa) Some((AggOp.byId(q.opId), q.window)) else None
    Raster.render(ChartSpec.underlying(t.cols, ChartSpec(cols, agg)), bench.cfg.chartW, bench.cfg.chartH)
  }

  /** The query set of a workload. Main and sweep images are re-rendered from
    * their specs; extracting them must give back the pack's lines.
    */
  def queries(bench: Bench, workload: String, seed: Long): Array[Query] = {
    def withImage(q: QueryPack): Query = {
      val img = imageOf(bench, q)
      val ex  = Extractor.extract(img)
      require(
        ex.lines.length == q.extractedLines.length &&
          ex.lines.zip(q.extractedLines).forall { case (a, b) => a.sameElements(b) },
        s"re-rendered image of query ${q.qid} does not reproduce its extracted lines"
      )
      Query(q, img)
    }
    workload match {
      case "search-da" => bench.queries.map(withImage)
      case "label-gt"  => (bench.queries ++ bench.sweep).map(withImage)
      case "search-plain" =>
        val main = bench.queries.filterNot(_.isDa).map(withImage)
        val rng  = new Random(seed ^ 0x5eedL)
        val copies = bench.repo.filter(_.parent >= 0)
        val next = (bench.queries ++ bench.sweep).map(_.qid).max + 1
        val extra = rng.shuffle(copies.toList).take(ExtraPlainQueries).zipWithIndex.map { case (t, i) =>
          val spec = ChartSpec(t.specCols.toVector, None)
          val img  = Raster.render(ChartSpec.underlying(t.cols, spec), bench.cfg.chartW, bench.cfg.chartH)
          Query(BenchData.makeQuery(next + i, t, spec, bench.cfg), img)
        }
        main ++ extra
    }
  }

  def persist(spark: SparkSession, bench: Bench): Dataset[BenchTable] = {
    import spark.implicits._
    val ds = spark.createDataset(bench.repo.toSeq).persist()
    ds.count()
    ds
  }

  /** Index keys and build, as the Table VIII harness does it. */
  def buildIndex(bench: Bench): HybridIndex = {
    val baseCfg = FcmConfig(useDa = false)
    val keys = bench.repo.flatMap { t =>
      t.cols.indices.map { i =>
        val emb = DatasetEncoder.encodeColumn(i, t.cols(i), baseCfg)
        ColumnKey(t.id, i, emb.min, emb.max, emb.sum, emb.pooled)
      }
    }
    HybridIndex.build(keys.toIndexedSeq, bits = 14, flips = 2, seed = bench.cfg.seed)
  }

  def train(bench: Bench, c: FcmConfig): FcmConfig =
    c.withWeights(Training.trainHead(bench.trainPacks, c, 3, Training.NegStrategy.SemiHard))

  /** The FCM variant a workload serves, before training. */
  def variant(workload: String): Option[FcmConfig] = workload match {
    case "search-da"    => Some(FcmConfig())
    case "search-plain" => Some(FcmConfig(useDa = false))
    case _              => None
  }

  /** One set-up: load and persist the repository, train the workload's
    * head, build the index where the workload uses it.
    */
  def setup(spark: SparkSession, bench: Bench, workload: String): (Served, SetupTimes) = {
    val (tables, tLoad) = Stats.secs(persist(spark, bench))
    val (head, tTrain)  = Stats.secs(variant(workload).map(train(bench, _)))
    val (index, tIndex) = Stats.secs(if (workload == "search-da") Some(buildIndex(bench)) else None)
    (Served(tables, head, index), SetupTimes(tLoad, tTrain, tIndex))
  }

  // ---- the search path --------------------------------------------------

  /** One query from image to ranked list: extract → chart encode → index
    * probe (search-da) → `Engine.fcmRank`. Returns the ranking and the
    * candidate set it must cover.
    */
  def search(
      spark: SparkSession,
      sys: Served,
      tables: Dataset[BenchTable],
      allIds: Set[Long],
      q: Query,
      tr: Tracer
  ): (Array[Long], Set[Long]) = tr.span("query") {
    val cfg = sys.head.get
    val ex  = tr.span("extract")(Extractor.extract(q.image))
    val pack = q.pack.copy(extractedLines = ex.lines, yLo = ex.yLo, yHi = ex.yHi)
    val cands = sys.index match {
      case Some(ix) =>
        val chart = tr.span("chart_encode")(ChartEncoder.encode(ex, cfg))
        tr.span("index_probe")(ix.candidates(IndexStrategy.Hybrid, chart))
      case None => allIds
    }
    val restrict = if (sys.index.isDefined) Map(pack.qid -> cands) else Map.empty[Int, Set[Long]]
    val ranked   = tr.span("pass")(Engine.fcmRank(spark, tables, Array(pack), cfg, restrict)._1)
    (ranked.getOrElse(pack.qid, Array.empty[Long]), cands)
  }

  /** Scores of every candidate of every query, recomputed with the same
    * public functions in one pass of the benchmark's own, each query's list
    * ordered by (−score, tid).
    */
  def scored(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      charts: Array[(Int, ChartEmb, Set[Long])],
      cfg: FcmConfig
  ): Map[Int, Array[Scored]] = {
    import spark.implicits._
    val b = spark.sparkContext.broadcast((charts, cfg))
    val rows = tables
      .mapPartitions(_.flatMap { t =>
        val (cs, c) = b.value
        val wanted  = cs.filter(_._3.contains(t.id))
        if (wanted.isEmpty) Iterator.empty
        else {
          val emb = DatasetEncoder.encodeTable(t.id, t.cols, c)
          wanted.iterator.map { case (qid, chart, _) => Scored(qid, t.id, Matcher.score(chart, emb, c)) }
        }
      })
      .collect()
    charts.map { case (qid, _, _) => qid -> rows.filter(_.qid == qid).sortBy(s => (-s.score, s.tid)) }.toMap
  }

  def covers(ranking: Array[Long], cands: Set[Long], allIds: Set[Long]): Boolean =
    ranking.length == cands.size && ranking.toSet == cands && ranking.forall(allIds.contains)

  // ---- timed loops -------------------------------------------------------

  /** Closed loop, one client, cycling over `items` until `seconds` have
    * passed and at least `minSamples` operations were timed; with
    * `wholeCycles` it also ends only at the end of a cycle, so every item is
    * timed equally often. Returns per-operation ms and wall-clock seconds.
    */
  def closedLoop[A](items: Array[A], seconds: Double, minSamples: Int, wholeCycles: Boolean)(op: A => Unit): (Array[Double], Double) = {
    val lat = mutable.ArrayBuffer.empty[Double]
    val t0  = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    def done    = elapsed >= seconds && lat.length >= minSamples && (!wholeCycles || lat.length % items.length == 0)
    while (!done) {
      val s = System.nanoTime()
      op(items(lat.length % items.length))
      lat += (System.nanoTime() - s) / 1e6
    }
    (lat.toArray, elapsed)
  }

  def precNdcg(rankings: Map[Int, Array[Long]], gt: Map[Int, Array[Long]], k: Int): (Double, Double) = {
    val qs = gt.keys.toSeq.sorted
    val p  = qs.map(q => Metrics.precAtK(rankings.getOrElse(q, Array.empty[Long]).toSeq, gt(q).toSet, k))
    val n  = qs.map(q => Metrics.ndcgAtK(rankings.getOrElse(q, Array.empty[Long]).toSeq, gt(q).toSet, k))
    (Metrics.mean(p), Metrics.mean(n))
  }
}
