package repro.baselines

import repro.core.Features
import repro.vis.{ChartImage, ChartSpec, Raster}

/** LineNet substitute: a perception-level chart embedding. The image's lit
  * (line) pixels are pooled over a coarse 8×4 grid into a density vector
  * that is L2-normalised and compared by cosine. The grid is deliberately
  * coarse: the paper's learned LineNet is an information-lossy image
  * embedding (Opt-LN trails CML in their Table II), and that loss is the
  * behaviour this substitute has to reproduce.
  */
object LineNet {
  val GridW = 8
  val GridH = 4

  def embed(img: ChartImage): Array[Double] = {
    val v = new Array[Double](GridW * GridH)
    var r = 0
    while (r < img.height) {
      val gr = math.min(GridH - 1, r * GridH / img.height)
      var c = 0
      while (c < img.width) {
        if (img.pixels(r * img.width + c) > 0f) {
          val gc = math.min(GridW - 1, c * GridW / img.width)
          v(gr * GridW + gc) += 1.0
        }
        c += 1
      }
      r += 1
    }
    val norm = math.sqrt(v.map(x => x * x).sum)
    if (norm > 1e-12) v.map(_ / norm) else v
  }

  def sim(a: Array[Double], b: Array[Double]): Double = Features.cosine(a, b)
}

/** DeepEye substitute: a visualization-recommendation heuristic that ranks
  * a table's columns by "interestingness" (trendiness + smoothness −
  * noisiness, the classic VisRec signals) and proposes the top-5 line-chart
  * specs. DE-LN's quality is bounded by whether these specs include the
  * query's columns — the recall gap the paper measures against Opt-LN.
  */
object DeepEye {

  /** Interestingness of a single column. */
  def columnScore(col: Array[Double]): Double = {
    val z = Features.znorm(col)
    val n = z.length
    if (n < 3) return 0.0
    // lag-1 autocorrelation (smoothness of the series)
    var ac = 0.0
    var i = 1
    while (i < n) { ac += z(i) * z(i - 1); i += 1 }
    ac /= (n - 1)
    // trendiness: |corr(z, t)|
    val t = Features.znorm(Array.tabulate(n)(_.toDouble))
    var tr = 0.0
    i = 0
    while (i < n) { tr += z(i) * t(i); i += 1 }
    tr = math.abs(tr / n)
    // noisiness: mean |first difference|
    var noise = 0.0
    i = 1
    while (i < n) { noise += math.abs(z(i) - z(i - 1)); i += 1 }
    noise /= (n - 1)
    ac + tr - 0.5 * noise
  }

  /** The top 5 recommended chart specs for a table (fewer for a table of
    * fewer than 3 columns, none for a table with no columns): the top
    * column, the top two, the top three, then the second and third columns
    * alone.
    */
  def recommend(cols: Array[Array[Double]]): Seq[ChartSpec] = {
    val ranked = cols.indices.sortBy(i => -columnScore(cols(i))).toVector
    if (ranked.isEmpty) return Seq.empty
    val specs = Seq.newBuilder[ChartSpec]
    specs += ChartSpec(Vector(ranked(0)), None)
    if (ranked.length > 1) specs += ChartSpec(ranked.take(2), None)
    if (ranked.length > 2) specs += ChartSpec(ranked.take(3), None)
    if (ranked.length > 1) specs += ChartSpec(Vector(ranked(1)), None)
    if (ranked.length > 2) specs += ChartSpec(Vector(ranked(2)), None)
    specs.result()
  }
}

/** DE-LN and Opt-LN baselines (paper Sec. VII-B). */
object DeLn {

  /** Canvas used when re-rendering candidate charts. DE-LN renders with
    * its own pipeline, not the one that produced the query chart, so the
    * canvases intentionally differ (cross-library rendering variation —
    * line thickness per grid cell, rasterisation rounding).
    */
  def candidateSize(w: Int, h: Int): (Int, Int) = (w * 5 / 6, h * 5 / 6)

  /** LineNet embeddings of the charts DeepEye recommends for a table,
    * over its columns' finite cells.
    */
  def candidateVecs(raw: Array[Array[Double]], w: Int, h: Int): Array[Array[Double]] = {
    val (cw, ch) = candidateSize(w, h)
    val cols     = raw.map(Features.finite)
    DeepEye.recommend(cols).map { spec =>
      LineNet.embed(Raster.render(ChartSpec.underlying(cols, spec), cw, ch))
    }.toArray
  }

  /** DE-LN score: best LineNet similarity over the recommended charts. */
  def score(queryVec: Array[Double], candidates: Array[Array[Double]]): Double = {
    var best = 0.0
    candidates.foreach { v =>
      val s = LineNet.sim(queryVec, v)
      if (s > best) best = s
    }
    best
  }

  /** Opt-LN: the chart rendered from the table's *associated* spec, over
    * its columns' finite cells — the upper bound of VisRec + LineNet, not
    * realisable in practice. A spec that selects no column has no chart,
    * and its vector is all zeros, which every query scores 0.
    */
  def optVec(cols: Array[Array[Double]], specCols: Array[Int], w: Int, h: Int): Array[Double] = {
    val (cw, ch) = candidateSize(w, h)
    val series   = ChartSpec.underlying(cols.map(Features.finite), ChartSpec(specCols.toVector, None))
    if (series.isEmpty) new Array[Double](LineNet.GridW * LineNet.GridH)
    else LineNet.embed(Raster.render(series, cw, ch))
  }
}
