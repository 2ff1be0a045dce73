package repro.baselines

import repro.core.Features
import repro.vis.ExtractedChart

/** Baseline CML (paper Sec. VII-B): state-of-the-art global encoders (ViT
  * for the chart, TURL for the table) + cosine similarity.
  *
  * Substitute global embedding (DESIGN.md §2): for one series, the
  * concatenation of
  *  - its z-normalised shape resampled to 32 points (global shape),
  *  - an 8-bin roughness profile (std of first differences per bin) —
  *    the fine-scale "texture" that shifts under data aggregation, which is
  *    why CML has no answer to DA-based queries,
  *  - two log-compressed scale statistics.
  * A chart embedding mean-pools its line embeddings; a table embedding
  * mean-pools its column embeddings. No segment-level matching, no DA
  * handling — matching CML's design.
  */
object Cml {

  val ShapeLen    = 32
  val RoughBins   = 8

  /** Global embedding of one series, over its finite cells only (NaN and
    * ±Inf are left out, as `Relevance.prep` leaves them out).
    */
  def seriesVec(raw: Array[Double]): Array[Double] = {
    val xs    = Features.finite(raw)
    val z     = Features.znorm(xs)
    val shape = Features.resample(z, ShapeLen)
    val rough = roughnessProfile(z, RoughBins)
    val stats = Array(signedLog(mean(xs)), signedLog(span(xs)))
    shape ++ rough ++ stats
  }

  /** Std of first differences per bin — the series "texture" profile. */
  def roughnessProfile(z: Array[Double], bins: Int): Array[Double] = {
    val n = z.length
    if (n < 2) return Array.fill(bins)(0.0)
    val diffs = Array.tabulate(n - 1)(i => z(i + 1) - z(i))
    Array.tabulate(bins) { b =>
      val from  = b * diffs.length / bins
      val until = math.max(from + 1, (b + 1) * diffs.length / bins)
      val slice = diffs.slice(from, math.min(diffs.length, until))
      if (slice.isEmpty) 0.0
      else {
        val m = slice.sum / slice.length
        math.sqrt(slice.map(d => (d - m) * (d - m)).sum / slice.length)
      }
    }
  }

  private def mean(xs: Array[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length
  private def span(xs: Array[Double]): Double = if (xs.isEmpty) 0.0 else xs.max - xs.min
  private def signedLog(x: Double): Double    = math.signum(x) * math.log1p(math.abs(x)) / 10.0

  /** Chart embedding: mean over the extracted lines' embeddings. */
  def chartVec(ex: ExtractedChart): Array[Double] =
    Features.pool(ex.lines.map(seriesVec))

  /** Table embedding: mean over the columns' embeddings. */
  def tableVec(cols: Array[Array[Double]]): Array[Double] =
    Features.pool(cols.map(seriesVec))

  /** `Rel'(V, T)` for CML: cosine of the two global embeddings. */
  def score(chart: Array[Double], table: Array[Double]): Double =
    Features.cosine(chart, table)
}
