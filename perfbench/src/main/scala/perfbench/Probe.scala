package perfbench

import repro.bench.SeriesGen
import repro.core._
import repro.vis._

import scala.collection.mutable
import scala.util.Random

/** Fixed-shape layer probe: tables of 8 columns × 1024 rows and charts of
  * 960×240 with M ∈ {1, 4, 8} lines, the shapes of the seed measurement
  * table. Also feeds hostile inputs through the public scoring functions and
  * records what comes out, defects included.
  */
object Probe {

  val Rows   = 1024
  val Cols   = 8
  val Ms     = Seq(1, 4, 8)
  val ChartW = 960
  val ChartH = 240

  /** µs per op of the original (v0) code, JIT-warmed on a 4-core machine,
    * as recorded in ROADMAP.md; keyed like the probe rows and printed beside
    * the fresh numbers.
    */
  val SeedUs: Map[String, Seq[Double]] = Map(
    "Matcher.score DA"       -> Seq(5361, 13724, 24454),
    "Matcher.score base"     -> Seq(365, 575, 1666),
    "Relevance.relPrepared"  -> Seq(1517, 3177, 4545),
    "Matching.maxWeight Mx12" -> Seq(603, 287, 1576),
    "Matching.maxWeight Mx8" -> Seq(36, 22, 57),
    "Raster.render"          -> Seq(1600, 1600, 600),
    "Extractor.extract"      -> Seq(1600, 1400, 1900)
  )
  val SeedSingleUs: Map[String, Double] = Map(
    "encodeTable DA" -> 1185, "encodeTable base" -> 108, "Matching.maxWeight 9x16" -> 17879
  )

  def table(rng: Random, nCols: Int): Array[Array[Double]] =
    Array.fill(nCols) {
      val scale = math.pow(10.0, rng.nextDouble() * 4.0 - 2.0)
      SeriesGen.gen(rng, rng.nextInt(SeriesGen.NFamilies), Rows, scale, scale * rng.nextDouble())
    }

  def matrix(rng: Random, r: Int, c: Int): Array[Array[Double]] = Array.fill(r, c)(rng.nextDouble())

  /** Runs the probe; appends metrics and returns the printed table. */
  def run(seed: Long, out: mutable.ArrayBuffer[Metric]): String = {
    val rng   = new Random(seed ^ 0x9b0beL)
    val cols  = table(rng, Cols)
    val da    = FcmConfig()
    val base  = FcmConfig(useDa = false)
    val tabDa   = DatasetEncoder.encodeTable(0L, cols, da)
    val tabBase = DatasetEncoder.encodeTable(0L, cols, base)
    val prepCols = cols.map(Relevance.prep)
    val rows = mutable.LinkedHashMap.empty[String, Seq[Double]]
    def row(name: String)(f: Int => Double): Unit = rows(name) = Ms.map(f)

    val underlying = Ms.map(m => m -> cols.take(m)).toMap
    val images     = underlying.map { case (m, u) => m -> Raster.render(u, ChartW, ChartH) }
    val charts     = images.map { case (m, img) => m -> ChartEncoder.encode(Extractor.extract(img), da) }

    row("Matcher.score DA")(m => Stats.medianUs(7)(Matcher.score(charts(m), tabDa, da)))
    row("Matcher.score base")(m => Stats.medianUs(9)(Matcher.score(charts(m), tabBase, base)))
    row("Relevance.relPrepared")(m => Stats.medianUs(9)(Relevance.relPrepared(underlying(m).map(Relevance.prep), prepCols)))
    row("Matching.maxWeight Mx12") { m => val w = matrix(rng, m, 12); Stats.medianUs(9)(Matching.maxWeight(w)) }
    row("Matching.maxWeight Mx8") { m => val w = matrix(rng, m, 8); Stats.medianUs(15)(Matching.maxWeight(w)) }
    row("Raster.render")(m => Stats.medianUs(9)(Raster.render(underlying(m), ChartW, ChartH)))
    row("Extractor.extract")(m => Stats.medianUs(9)(Extractor.extract(images(m))))
    val single = mutable.LinkedHashMap(
      "encodeTable DA"          -> Stats.medianUs(9)(DatasetEncoder.encodeTable(0L, cols, da)),
      "encodeTable base"        -> Stats.medianUs(15)(DatasetEncoder.encodeTable(0L, cols, base)),
      "Matching.maxWeight 9x16" -> { val w = matrix(rng, 9, 16); Stats.medianUs(5, 1)(Matching.maxWeight(w)) }
    )

    def add(name: String, v: Double, unit: String = "us"): Unit = out += Metric(name, v, unit)
    Ms.zipWithIndex.foreach { case (m, i) =>
      add(s"core.score_da_us_m$m", rows("Matcher.score DA")(i))
      add(s"core.score_base_us_m$m", rows("Matcher.score base")(i))
      add(s"core.rel_us_m$m", rows("Relevance.relPrepared")(i))
    }
    add("core.matching_us_8x8", rows("Matching.maxWeight Mx8")(2))
    add("core.matching_us_8x12", rows("Matching.maxWeight Mx12")(2))
    add("core.matching_us_9x16", single("Matching.maxWeight 9x16"))

    hostile(rng, cols, charts(4), underlying(4).map(Relevance.prep), out)

    val b = new StringBuilder
    b ++= f"fixed-shape layer probe (µs/op, median; tables $Cols×$Rows, charts ${ChartW}×$ChartH); v0 values in brackets%n"
    b ++= f"${"layer"}%-26s" + Ms.map(m => f"${"M=" + m}%22s").mkString + "\n"
    rows.foreach { case (name, vs) =>
      b ++= f"$name%-26s" + vs.zip(SeedUs(name)).map { case (v, s) => f"${f"$v%.0f [$s%.0f]"}%22s" }.mkString + "\n"
    }
    single.foreach { case (name, v) => b ++= f"$name%-26s${f"$v%.0f [${SeedSingleUs(name)}%.0f]"}%22s%n" }
    b.toString
  }

  /** Hostile inputs: a table with one NaN cell, a table whose columns are
    * empty, a 0-line chart and a 17-column table, fed through the public
    * scoring functions with the untrained default heads (as the seed
    * measurement did). Whatever comes out is recorded; nothing is asserted.
    * Non-finite Rel values are reported as -1.
    */
  private def hostile(
      rng: Random,
      cols: Array[Array[Double]],
      chart: ChartEmb,
      d: Array[Array[Double]],
      out: mutable.ArrayBuffer[Metric]
  ): Unit = {
    val nanTable = cols.map(_.clone())
    nanTable(0)(Rows / 2) = Double.NaN
    val emptyTable = Array.fill(Cols)(Array.empty[Double])
    val wideTable  = cols ++ table(rng, 17 - Cols)
    val zeroChart  = ChartEncoder.encode(ExtractedChart(Array.empty, chart.yLo, chart.yHi), FcmConfig())

    val scores = for {
      cfg    <- Seq(FcmConfig(), FcmConfig(useDa = false))
      (c, t) <- Seq((chart, nanTable), (chart, emptyTable), (chart, wideTable), (zeroChart, cols))
    } yield Matcher.score(c, DatasetEncoder.encodeTable(0L, t, cfg), cfg)
    val rels = Seq(
      ("core.rel_nan_cell", d, nanTable),
      ("core.rel_empty_table", d, emptyTable),
      ("core.rel_zero_line", Array.empty[Array[Double]], cols),
      ("core.rel_wide_table", d, wideTable)
    ).map { case (name, dd, t) => name -> Relevance.relPrepared(dd, t.map(Relevance.prep)) }

    // 17-column matching: the weight matrices the 17-column table gives the
    // DA and base scorers and the Rel, and one matrix on which taking the
    // best edge first is not optimal (1.0 + 0 against 0.9 + 0.9).
    val mc = new Layers.MatchCheck
    def check(w: Array[Array[Double]]): Unit = mc(w, Matching.maxWeight(w))
    for (cfg <- Seq(FcmConfig(), FcmConfig(useDa = false))) {
      val emb = DatasetEncoder.encodeTable(0L, wideTable, cfg)
      check(Array.tabulate(chart.m, emb.cols.length)((l, c) => Matcher.preScore(Matcher.daPairFeatures(chart.lines(l), emb.cols(c), cfg)._1)))
    }
    check(Array.tabulate(d.length, wideTable.length)((l, c) => Dtw.rel(d(l), Relevance.prep(wideTable(c)))))
    check(Array.tabulate(2, 17)((r, c) => if (c == 0) (if (r == 0) 1.0 else 0.9) else if (r == 0 && c == 1) 0.9 else 0.0))

    out += Metric("core.nonfinite_scores", scores.count(s => s.isNaN || s.isInfinite).toDouble, "count")
    out += Metric("core.nonfinite_rels", rels.count { case (_, r) => r.isNaN || r.isInfinite }.toDouble, "count")
    rels.foreach { case (n, r) => out += Metric(n, if (r.isNaN || r.isInfinite) -1.0 else r, "rel") }
    out += Metric("core.greedy_suboptimal_calls", mc.short.toDouble, "count")
    out += Metric("core.empty_table_score", scores(1), "score")
    out += Metric("core.zero_line_score", scores(3), "score")
  }
}
