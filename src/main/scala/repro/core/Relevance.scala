package repro.core

/** Ground-truth relevance `Rel(D, T)` (paper Sec. III-A).
  *
  * Low level: `rel(d, C) = 1/(1 + DTW(d, C))` over z-normalised,
  * downsampled series. High level: maximum-weight bipartite matching
  * between the chart's data series and the table's columns, normalised by
  * the number of series so scores are comparable across M.
  */
object Relevance {

  /** Max series length fed to DTW; see DESIGN.md §2 for the substitution. */
  val MaxDtwLen = 256

  /** Prepare a raw series for DTW: drop its non-finite cells (NaN, ±Inf),
    * z-normalise, then downsample. A series of finite cells large enough
    * to overflow keeps its shape (`Features.znorm`).
    */
  def prep(xs: Array[Double]): Array[Double] =
    Dtw.downsample(Features.znorm(Features.finite(xs)), MaxDtwLen)

  /** Rel over already-prepared (z-normalised, downsampled) series. */
  def relPrepared(d: Array[Array[Double]], cols: Array[Array[Double]]): Double =
    Matching.lift(Array.tabulate(d.length, cols.length)((i, j) => Dtw.rel(d(i), cols(j))))

  /** Rel over raw series (prepares both sides). */
  def rel(d: Array[Array[Double]], cols: Array[Array[Double]]): Double =
    relPrepared(d.map(prep), cols.map(prep))
}
