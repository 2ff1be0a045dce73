package repro.bench

import org.apache.spark.sql.SparkSession
import repro.baselines.{Cml, LineNet}
import repro.core.{Relevance, Training}
import repro.vis._

import scala.util.Random

/** One repository table: numeric columns plus the associated chart spec
  * (which columns its owner would plot — the Plotly vis-config analogue).
  * `parent` is the source table id for ground-truth noise copies, -1
  * otherwise.
  */
final case class BenchTable(
    id: Long,
    cols: Array[Array[Double]],
    specCols: Array[Int],
    parent: Long,
    family: String
)

/** One line chart query, fully pre-processed on the driver: rendered,
  * extracted, plus the per-baseline query-side representations. The
  * segment-level chart encoding is (re)derived from `extractedLines` under
  * whichever FcmConfig an evaluation uses.
  */
final case class QueryPack(
    qid: Int,
    sourceTable: Long,
    m: Int,
    isDa: Boolean,
    opId: Int,
    window: Int,
    extractedLines: Array[Array[Double]],
    yLo: Double,
    yHi: Double,
    cmlVec: Array[Double],
    lineNetVec: Array[Double],
    underlyingPrepared: Array[Array[Double]]
) extends Serializable {
  def extracted: ExtractedChart = ExtractedChart(extractedLines, yLo, yHi)
}

/** Benchmark scale knobs (DESIGN.md §6). */
final case class BenchConfig(
    nRepoBase: Int,
    nTrain: Int,
    nQueryTables: Int,
    noisePerQuery: Int,
    k: Int,
    queryRows: Int,
    sweepTables: Int,
    sweepWindows: Seq[Int],
    seed: Long,
    chartW: Int,
    chartH: Int,
    tpchSf: Double
)

object BenchConfig {
  // Chart widths keep the default segment granularities aligned: at the
  // paper's defaults (P1=60, P2=64) a query chart has W/P1 line segments
  // and a query table N_R/P2 data segments; W = 960 with N_R = 1024 gives
  // 16 = 16 (the paper's testbed sits on the same diagonal, cf. Table VII).

  /** Toy scale for unit/integration tests (512 rows / 480 px → 8 = 8). */
  val unit: BenchConfig =
    BenchConfig(40, 16, 4, 12, 10, 512, 1, Seq(5, 30), 42L, 480, 160, 0.002)

  /** Reduced scale for the 25-config Table VII sweep and Table IX. */
  val small: BenchConfig =
    BenchConfig(200, 60, 8, 50, 50, 1024, 2, Seq(5, 30, 50, 70, 90), 42L, 960, 240, 0.005)

  /** Main benchmark scale (Tables I–VI, VIII). */
  val bench: BenchConfig =
    BenchConfig(700, 120, 24, 50, 50, 1024, 4, Seq(5, 30, 50, 70, 90), 42L, 960, 240, 0.01)
}

/** The generated benchmark. */
final case class Bench(
    cfg: BenchConfig,
    repo: Array[BenchTable],
    queries: Array[QueryPack],
    sweep: Array[QueryPack],
    trainPacks: Array[Training.TrainPack]
)

/** Benchmark generator following the paper's construction protocol
  * (Sec. VII-A): repository tables with associated specs, a train split, a
  * query split with one non-DA and one DA chart per query table, ×U(0.9,
  * 1.1) noise copies of each query table added to the repository, and a
  * dedicated operator × window sweep for Table IV.
  */
object BenchData {

  /** Number-of-lines distribution of the query charts, following the
    * proportions of the paper's Table I (37% / 25% / 21% / 17%).
    */
  def queryMs(n: Int): Array[Int] = {
    val out = new Array[Int](n)
    val b1 = math.max(1, math.round(0.37 * n).toInt)
    val b2 = math.max(1, math.round(0.25 * n).toInt)
    val b3 = math.max(1, math.round(0.21 * n).toInt)
    val cyc24 = Array(2, 3, 4)
    val cyc57 = Array(5, 6, 7)
    val cyc8  = Array(8, 9)
    var i = 0
    while (i < n) {
      out(i) =
        if (i < b1) 1
        else if (i < b1 + b2) cyc24((i - b1) % 3)
        else if (i < b1 + b2 + b3) cyc57((i - b1 - b2) % 3)
        else cyc8((i - b1 - b2 - b3) % 2)
      i += 1
    }
    out
  }

  /** The line-count buckets of Tables I/III/V, in the paper's order. */
  val mBuckets: Seq[String] = Seq("1", "2-4", "5-7", ">7")

  /** Bucket label of `mBuckets` for a number of lines. */
  def mBucket(m: Int): String =
    mBuckets(if (m == 1) 0 else if (m <= 4) 1 else if (m <= 7) 2 else 3)

  private def genTable(
      rng: Random,
      id: Long,
      nRows: Int,
      nCols: Int,
      m: Int,
      pool: Array[Array[Double]]
  ): BenchTable = {
    val primary = rng.nextInt(SeriesGen.NFamilies + (if (pool.nonEmpty) 1 else 0))
    // Value scales span six decades (Plotly tables mix currencies, counts,
    // rates...), with mostly-positive offsets — this is also what gives the
    // interval tree something to prune (Table VIII).
    def newScale(): Double  = math.pow(10.0, rng.nextDouble() * 6.0 - 3.0)
    def newOffset(s: Double): Double = s * (rng.nextDouble() * 3.0 - 0.5)
    val scale  = newScale()
    val offset = newOffset(scale)
    def series(family: Int, s: Double, o: Double): Array[Double] =
      if (family == SeriesGen.NFamilies) SeriesGen.fromPool(rng, pool, nRows, s, o)
      else SeriesGen.gen(rng, family, nRows, s, o)
    val cols = Array.tabulate(nCols) { c =>
      if (c < m) series(primary, scale, offset) // spec columns share family+scale
      else {
        val f = rng.nextInt(SeriesGen.NFamilies + (if (pool.nonEmpty) 1 else 0))
        val s = newScale()
        series(f, s, newOffset(s))
      }
    }
    val fam = SeriesGen.FamilyNames(math.min(primary, SeriesGen.FamilyNames.length - 1))
    BenchTable(id, cols, Array.range(0, m), -1L, fam)
  }

  /** Render `spec` over `cols` and extract it again: the chart image, the
    * extracted chart and the prepared underlying data of the ground truth.
    */
  private def render(
      cols: Array[Array[Double]],
      spec: ChartSpec,
      cfg: BenchConfig
  ): (ChartImage, ExtractedChart, Array[Array[Double]]) = {
    val underlying = ChartSpec.underlying(cols, spec)
    val img = Raster.render(underlying, cfg.chartW, cfg.chartH)
    (img, Extractor.extract(img), underlying.map(Relevance.prep))
  }

  /** Build a query pack from a table + spec (renders and extracts). */
  def makeQuery(
      qid: Int,
      table: BenchTable,
      spec: ChartSpec,
      cfg: BenchConfig
  ): QueryPack = {
    val (img, ex, prepared) = render(table.cols, spec, cfg)
    QueryPack(
      qid = qid,
      sourceTable = table.id,
      m = spec.m,
      isDa = spec.isDa,
      opId = spec.agg.map(_._1.id).getOrElse(0),
      window = spec.agg.map(_._2).getOrElse(0),
      extractedLines = ex.lines,
      yLo = ex.yLo,
      yHi = ex.yHi,
      cmlVec = Cml.chartVec(ex),
      lineNetVec = LineNet.embed(img),
      underlyingPrepared = prepared
    )
  }

  /** Generate the benchmark for `cfg`, on the driver. Every table, query
    * and train pack is drawn from one `Random` seeded with `cfg.seed`, and
    * the TPC-H-lite pool from its own fixed seed, so the result does not
    * depend on the machine or on Spark's parallelism.
    */
  def generate(cfg: BenchConfig): Bench = {
    val rng  = new Random(cfg.seed)
    val pool = SeriesGen.tpchPool(cfg.tpchSf)
    val rowChoices = Array(256, 512, 768, 1024)

    var nextId = 0L
    def take(): Long = { val id = nextId; nextId += 1; id }

    // Repository base tables.
    val base = Array.fill(cfg.nRepoBase) {
      val nRows = rowChoices(rng.nextInt(rowChoices.length))
      val m     = 1 + rng.nextInt(3)
      val nCols = math.max(m + 1, 2 + rng.nextInt(7))
      genTable(rng, take(), nRows, nCols, m, pool)
    }

    // Query tables, with the Table I line-count distribution.
    val ms = queryMs(cfg.nQueryTables)
    val queryTables = Array.tabulate(cfg.nQueryTables) { i =>
      val m     = ms(i)
      val nCols = m + 1 + rng.nextInt(3)
      genTable(rng, take(), cfg.queryRows, nCols, m, pool)
    }

    // Noise copies: C_new = C * sigma, sigma ~ U(0.9, 1.1) elementwise.
    val noise = queryTables.flatMap { t =>
      Array.fill(cfg.noisePerQuery) {
        val cols = t.cols.map(_.map(v => v * (0.9 + 0.2 * rng.nextDouble())))
        BenchTable(take(), cols, t.specCols, t.id, t.family)
      }
    }

    val repo = base ++ queryTables ++ noise

    // Two queries per query table: plain and aggregation-based.
    var qid = 0
    val queries = queryTables.flatMap { t =>
      val plain = ChartSpec(t.specCols.toVector, None)
      val op     = AggOp.all(rng.nextInt(AggOp.all.length))
      val maxW   = math.max(2, math.min(100, t.cols(0).length / 10))
      val window = 2 + rng.nextInt(maxW - 1)
      val da     = ChartSpec(t.specCols.toVector, Some((op, window)))
      Seq(plain, da).map { spec =>
        val q = makeQuery(qid, t, spec, cfg); qid += 1; q
      }
    }

    // Operator x window sweep for Table IV (single-line DA charts).
    val sweep = queryTables.take(cfg.sweepTables).flatMap { t =>
      for {
        op <- AggOp.all
        w  <- cfg.sweepWindows
        if t.cols(0).length / w >= 4
      } yield {
        val spec = ChartSpec(Vector(t.specCols(0)), Some((op, w)))
        val q = makeQuery(qid, t, spec, cfg); qid += 1; q
      }
    }

    // Train split: its own tables + charts (half DA), never in the repo.
    val trainPacks = Array.fill(cfg.nTrain) {
      val m     = 1 + rng.nextInt(3)
      val nCols = m + 1 + rng.nextInt(3)
      val t     = genTable(rng, -1L, 512, nCols, m, pool)
      val spec =
        if (rng.nextBoolean()) ChartSpec(t.specCols.toVector, None)
        else {
          val op   = AggOp.all(rng.nextInt(AggOp.all.length))
          val maxW = math.max(2, math.min(100, 512 / 10))
          ChartSpec(t.specCols.toVector, Some((op, 2 + rng.nextInt(maxW - 1))))
        }
      val (_, ex, prepared) = render(t.cols, spec, cfg)
      Training.TrainPack(ex.lines, ex.yLo, ex.yHi, prepared, t.cols)
    }

    Bench(cfg, repo, queries, sweep, trainPacks)
  }

  /** `generate(cfg)`; `spark` is unused. Kept for callers that pass a
    * session, such as `perfbench/`.
    */
  def generate(spark: SparkSession, cfg: BenchConfig): Bench = generate(cfg)
}
