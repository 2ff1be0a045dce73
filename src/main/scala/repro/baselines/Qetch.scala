package repro.baselines

import repro.core.{Features, Matching}
import repro.vis.ExtractedChart

/** Baseline Qetch* (paper Sec. VII-B): the sketch-based time-series search
  * of Qetch, extended to multi-line charts by extracting every line and
  * aggregating per-line/column scores with maximum bipartite matching.
  *
  * Qetch's matcher is *local*, scale-invariant and tolerant: it slides the
  * sketch over locally re-normalised sub-windows of a series and scores a
  * coarse (quantised) slope-pattern mismatch. We reproduce that character:
  * each extracted line is a quantised slope profile that is compared
  * against sub-windows of the column (half- and quarter-length, several
  * offsets), never the full column at once — matching local patterns while
  * ignoring global structure and magnitude, which is exactly the weakness
  * the paper attributes to Qetch*.
  */
object Qetch {

  /** Coarse profile length — Qetch's matcher is tolerant by design (it
    * matches hand sketches), so the slope profile is deliberately low-
    * resolution compared to the model-side encoders.
    */
  val ProfileLen = 24

  /** Slope profile of a series: first differences of the coarse z-shape. */
  def slopeProfile(xs: Array[Double]): Array[Double] = {
    val shape = Features.resample(Features.znorm(xs), ProfileLen)
    Array.tabulate(ProfileLen - 1)(i => shape(i + 1) - shape(i))
  }

  /** Candidate windows of a column's finite cells: the whole series plus
    * half-length windows at several offsets (Qetch searches across scales,
    * locally re-normalising each window). A column with no finite cell has
    * none, so every line scores 0 against it.
    */
  def columnProfiles(raw: Array[Double]): Array[Array[Double]] = {
    val col = Features.finite(raw)
    val n   = col.length
    if (n == 0) return Array.empty
    val out = Array.newBuilder[Array[Double]]
    out += slopeProfile(col)
    for (offStep <- 0 to 2) {
      val len = math.max(8, n / 2)
      val off = math.min(math.max(0, n - len), offStep * n / 4)
      out += slopeProfile(col.slice(off, off + len))
    }
    out.result()
  }

  /** Qetch line-window distortion error: mean absolute slope mismatch. */
  def distortion(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    val n = math.min(a.length, b.length)
    while (i < n) { s += math.abs(a(i) - b(i)); i += 1 }
    if (n == 0) Double.PositiveInfinity else s / n
  }

  /** rel(line, column) = best match over the local window grid. */
  def lineColumnRel(lineProfile: Array[Double], colProfiles: Array[Array[Double]]): Double = {
    var best = Double.PositiveInfinity
    colProfiles.foreach { p =>
      val d = distortion(lineProfile, p)
      if (d < best) best = d
    }
    1.0 / (1.0 + 10.0 * best)
  }

  /** `Rel'(V, T)` over prepared profiles: bipartite aggregation over all
    * (line, column) pairs, normalised by the number of lines.
    */
  def scoreProfiles(lineProfiles: Array[Array[Double]], colProfiles: Array[Array[Array[Double]]]): Double = {
    if (lineProfiles.isEmpty || colProfiles.isEmpty) return 0.0
    val w = Array.tabulate(lineProfiles.length, colProfiles.length) { (i, j) =>
      lineColumnRel(lineProfiles(i), colProfiles(j))
    }
    Matching.maxWeight(w)._1 / lineProfiles.length
  }

  /** `Rel'(V, T)` of an extracted chart against a table's columns. */
  def score(chart: ExtractedChart, cols: Array[Array[Double]]): Double =
    scoreProfiles(chart.lines.map(slopeProfile), cols.map(columnProfiles))
}
