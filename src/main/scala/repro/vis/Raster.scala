package repro.vis

/** A rendered line chart: a greyscale pixel grid plus y-axis tick marks.
  *
  * Lines are drawn with per-line intensities (the greyscale analogue of
  * Plotly's per-series colors after the paper's grey conversion); later
  * lines over-paint earlier ones, so crossing lines occlude each other —
  * the same artefact an instance-segmentation extractor has to cope with.
  *
  * Ticks carry both their pixel row (geometry) and numeric value; the
  * value plays the role of the tick label that the paper's extractor OCRs
  * out of the bitmap (see DESIGN.md §2).
  */
final case class Tick(row: Int, value: Double) extends Serializable

final case class ChartImage(width: Int, height: Int, pixels: Array[Float], ticks: Array[Tick])
    extends Serializable {
  /** Pixel intensity at (row, col); 0 is background. */
  def apply(row: Int, col: Int): Float = pixels(row * width + col)
}

/** From-scratch rasteriser for line charts (rendering substrate). */
object Raster {
  val NTicks = 5

  /** Intensity assigned to line `i` of `m`: distinct, in (0, 1]. */
  def lineIntensity(i: Int, m: Int): Float = ((i + 1).toFloat / m)

  /** Render data series (all of equal length, shared x) into a chart.
    * The y-range spans all series with a 5% margin, like most chart tools.
    */
  def render(series: Array[Array[Double]], w: Int, h: Int): ChartImage = {
    require(series.nonEmpty, "cannot render an empty chart")
    val m = series.length
    var lo = Double.PositiveInfinity
    var hi = Double.NegativeInfinity
    series.foreach(_.foreach { v =>
      if (v < lo) lo = v
      if (v > hi) hi = v
    })
    if (!lo.isFinite || !hi.isFinite) { lo = 0.0; hi = 1.0 }
    val pad = 0.05 * math.max(hi - lo, 1e-9)
    lo -= pad; hi += pad
    if (hi - lo < 1e-12) hi = lo + 1.0

    val px = new Array[Float](w * h)
    def rowOf(v: Double): Int = {
      val r = math.round((h - 1) * (1.0 - (v - lo) / (hi - lo))).toInt
      math.max(0, math.min(h - 1, r))
    }
    def colOf(k: Int, n: Int): Int =
      if (n <= 1) 0 else math.round(k.toDouble * (w - 1) / (n - 1)).toInt

    var i = 0
    while (i < m) {
      val s  = series(i)
      val in = lineIntensity(i, m)
      val n  = s.length
      if (n == 1) px(rowOf(s(0)) * w + colOf(0, n)) = in
      var k = 0
      while (k < n - 1) {
        drawLine(px, w, colOf(k, n), rowOf(s(k)), colOf(k + 1, n), rowOf(s(k + 1)), in)
        k += 1
      }
      i += 1
    }

    val ticks = Array.tabulate(NTicks) { t =>
      val row = math.round(t.toDouble * (h - 1) / (NTicks - 1)).toInt
      Tick(row, hi - t.toDouble * (hi - lo) / (NTicks - 1))
    }
    ChartImage(w, h, px, ticks)
  }

  /** Bresenham segment into the pixel buffer (painter's order: overwrites). */
  private def drawLine(px: Array[Float], w: Int, x0: Int, y0: Int, x1: Int, y1: Int, in: Float): Unit = {
    var x = x0; var y = y0
    val dx = math.abs(x1 - x0); val sx = if (x0 < x1) 1 else -1
    val dy = -math.abs(y1 - y0); val sy = if (y0 < y1) 1 else -1
    var err = dx + dy
    var continue = true
    while (continue) {
      px(y * w + x) = in
      if (x == x1 && y == y1) continue = false
      else {
        val e2 = 2 * err
        if (e2 >= dy) { err += dy; x += sx }
        if (e2 <= dx) { err += dx; y += sy }
      }
    }
  }
}
