package repro.core

/** Segment-level feature vectors shared by the chart and dataset encoders.
  *
  * The paper embeds each line segment / data segment with a transformer;
  * here each segment of a z-normalised series is described by six
  * deterministic statistics (DESIGN.md §2). The descriptors preserve the
  * locality structure that the segment sizes P1/P2 control, which is what
  * the paper's segment-level design (and its Table V/VII experiments) rely
  * on.
  */
object Features {

  /** Number of points of the per-segment resampled shape descriptor. */
  val ShapePts = 8

  /** Feature dimensionality: six statistics (mean, std, min, max, net
    * change, mean |step|) plus the segment's shape resampled to ShapePts.
    */
  val Dim = 6 + ShapePts

  /** Relative weight of each feature inside the similarity kernel. */
  private val W: Array[Double] =
    Array(1.0, 0.8, 0.7, 0.7, 1.0, 0.9) ++ Array.fill(ShapePts)(0.8)
  private val WSum: Double = W.sum

  /** z-normalise a series (zero mean, unit variance; flat series map to 0).
    * A series whose mean or variance overflows, or whose standard deviation
    * is below the flatness threshold while its largest |cell| is below 1,
    * is z-normalised scaled by a power of two that brings its largest |cell|
    * into [1, 2). The scaling is exact, so the z-values are those of the
    * series at a magnitude where nothing overflows and a tiny series keeps
    * its shape; a series still flat at that magnitude maps to 0.
    */
  def znorm(xs: Array[Double]): Array[Double] = {
    val n = xs.length
    if (n == 0) return xs
    val (mean, sd) = meanSd(xs)
    val flat = sd < 1e-12
    if (flat || !java.lang.Double.isFinite(sd)) {
      val c = unitScale(xs)
      if (c > 1.0 || (c < 1.0 && !flat)) return znorm(xs.map(_ * c))
    }
    if (flat) Array.fill(n)(0.0)
    else {
      val out = new Array[Double](n)
      var i = 0
      while (i < n) { out(i) = (xs(i) - mean) / sd; i += 1 }
      out
    }
  }

  /** The factor `znorm` scales `xs` by: 1.0 unless its mean or variance
    * overflows. A caller that also aggregates a finite series scales it by
    * this first, so no aggregate overflows either.
    */
  def overflowScale(xs: Array[Double]): Double =
    if (xs.isEmpty || java.lang.Double.isFinite(meanSd(xs)._2)) 1.0 else unitScale(xs)

  /** Mean and population standard deviation of a non-empty series. */
  private def meanSd(xs: Array[Double]): (Double, Double) = {
    val n = xs.length
    var s = 0.0; var i = 0
    while (i < n) { s += xs(i); i += 1 }
    val mean = s / n
    var v = 0.0; i = 0
    while (i < n) { val d = xs(i) - mean; v += d * d; i += 1 }
    (mean, math.sqrt(v / n))
  }

  /** The power of two that brings the largest finite |cell| of `xs` into
    * [1, 2); 1.0 when `xs` has no finite non-zero cell. A subnormal largest
    * |cell| lands below 1, and `znorm` scales once more.
    */
  private def unitScale(xs: Array[Double]): Double = {
    var mx = 0.0; var i = 0
    while (i < xs.length) {
      val a = math.abs(xs(i))
      if (java.lang.Double.isFinite(a) && a > mx) mx = a
      i += 1
    }
    if (mx == 0.0) 1.0 else math.scalb(1.0, -math.getExponent(mx))
  }

  /** Feature vector of `xs[from, until)`. Callers guarantee until > from. */
  def segFeatures(xs: Array[Double], from: Int, until: Int): Array[Double] = {
    val n = until - from
    var s = 0.0; var mn = Double.PositiveInfinity; var mx = Double.NegativeInfinity
    var i = from
    while (i < until) {
      val x = xs(i)
      s += x
      if (x < mn) mn = x
      if (x > mx) mx = x
      i += 1
    }
    val mean = s / n
    var v = 0.0; var steps = 0.0
    i = from
    while (i < until) {
      val d = xs(i) - mean
      v += d * d
      if (i > from) steps += math.abs(xs(i) - xs(i - 1))
      i += 1
    }
    val std = math.sqrt(v / n)
    val net = xs(until - 1) - xs(from)
    val mas = if (n > 1) steps / (n - 1) else 0.0
    val out = new Array[Double](Dim)
    out(0) = mean; out(1) = std; out(2) = mn; out(3) = mx; out(4) = net; out(5) = mas
    // per-segment shape, resampled to ShapePts points (series-level z-units)
    var k = 0
    while (k < ShapePts) {
      val t  = if (ShapePts == 1) 0.0 else k.toDouble * (n - 1) / (ShapePts - 1)
      val lo = t.toInt
      val hi = math.min(n - 1, lo + 1)
      val fr = t - lo
      out(6 + k) = xs(from + lo) * (1 - fr) + xs(from + hi) * fr
      k += 1
    }
    out
  }

  /** Tumbling segmentation: features + normalised centre positions for each
    * segment of `segLen` points. A trailing partial segment is kept when it
    * is the only segment or is at least half-length; single-point tails are
    * dropped.
    */
  def segmentAll(xs: Array[Double], segLen: Int): (Array[Array[Double]], Array[Double]) = {
    val n = xs.length
    if (n == 0) return (Array.empty, Array.empty)
    val feats = Array.newBuilder[Array[Double]]
    val pos   = Array.newBuilder[Double]
    var start = 0
    while (start < n) {
      val end = math.min(n, start + segLen)
      val len = end - start
      val keep = (start == 0) || len >= math.max(2, segLen / 2)
      if (keep && len >= 1) {
        feats += segFeatures(xs, start, end)
        pos += (start + len / 2.0) / n
      }
      start += segLen
    }
    (feats.result(), pos.result())
  }

  /** Elementwise mean over segment features (pooled representation). */
  def pool(segs: Array[Array[Double]]): Array[Double] = {
    if (segs.isEmpty) return Array.fill(Dim)(0.0)
    val out = new Array[Double](segs(0).length)
    var i = 0
    while (i < segs.length) {
      var j = 0
      while (j < out.length) { out(j) += segs(i)(j); j += 1 }
      i += 1
    }
    var j = 0
    while (j < out.length) { out(j) /= segs.length; j += 1 }
    out
  }

  /** Bandwidth of the `sim` kernel, in z-units. */
  val Tau = 0.35

  /** Gaussian-ish similarity kernel in z-units with bandwidth `Tau`.
    * Returns a score in (0, 1], 1 for identical features. Vectors are at
    * most `Dim` long.
    */
  def sim(a: Array[Double], b: Array[Double]): Double = {
    var d = 0.0
    var j = 0
    while (j < a.length) {
      val x = a(j) - b(j)
      d += W(j) * x * x
      j += 1
    }
    simOfDist(d)
  }

  /** `out(off + n) = sim(a, bs(n))` for every `n`. Four vectors of `bs` are
    * compared at a time, each with its own accumulator, so the four
    * dependency chains overlap; every distance keeps `sim`'s operation
    * order, so the results equal `sim`'s bit for bit.
    */
  def simRow(a: Array[Double], bs: Array[Array[Double]], out: Array[Double], off: Int): Unit = {
    val nb = bs.length
    var n  = 0
    while (n + 4 <= nb) {
      val b0 = bs(n); val b1 = bs(n + 1); val b2 = bs(n + 2); val b3 = bs(n + 3)
      var d0 = 0.0; var d1 = 0.0; var d2 = 0.0; var d3 = 0.0
      var j = 0
      while (j < a.length) {
        val w  = W(j)
        val aj = a(j)
        val x0 = aj - b0(j); d0 += w * x0 * x0
        val x1 = aj - b1(j); d1 += w * x1 * x1
        val x2 = aj - b2(j); d2 += w * x2 * x2
        val x3 = aj - b3(j); d3 += w * x3 * x3
        j += 1
      }
      out(off + n) = simOfDist(d0)
      out(off + n + 1) = simOfDist(d1)
      out(off + n + 2) = simOfDist(d2)
      out(off + n + 3) = simOfDist(d3)
      n += 4
    }
    while (n < nb) { out(off + n) = sim(a, bs(n)); n += 1 }
  }

  /** The `sim` kernel of a weighted squared distance `d`. */
  private def simOfDist(d: Double): Double = math.exp(-math.sqrt(d / WSum) / Tau)

  /** Cosine similarity; zero vectors map to 0. */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0
    var i = 0
    val n = math.min(a.length, b.length)
    while (i < n) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na < 1e-18 || nb < 1e-18) 0.0 else dot / math.sqrt(na * nb)
  }

  /** Linear resample of `xs` to exactly `len` points. */
  def resample(xs: Array[Double], len: Int): Array[Double] = {
    val n = xs.length
    if (n == 0) return Array.fill(len)(0.0)
    if (n == 1) return Array.fill(len)(xs(0))
    Array.tabulate(len) { i =>
      val t  = i.toDouble * (n - 1) / math.max(1, len - 1)
      val lo = t.toInt
      val hi = math.min(n - 1, lo + 1)
      val f  = t - lo
      xs(lo) * (1 - f) + xs(hi) * f
    }
  }
}
