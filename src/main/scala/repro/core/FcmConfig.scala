package repro.core

/** FCM hyper-parameters and learned head weights (paper Secs. IV–V).
  *
  * @param p1        line segment width in pixels (paper default 60)
  * @param p2        data segment length in cells (paper default 64)
  * @param useDa     enable the three DA-related layers (Sec. V); the
  *                  FCM-DA ablation of Table VI sets this to false
  * @param useHcman  enable the hierarchical cross-modal attention network;
  *                  the FCM-HCMAN ablation of Table V sets this to false
  * @param weights   logistic head weights, length featureDim+1 (bias first);
  *                  null selects untrained defaults (useful in unit tests)
  */
final case class FcmConfig(
    p1: Int = 60,
    p2: Int = 64,
    useDa: Boolean = true,
    useHcman: Boolean = true,
    weights: Array[Double] = null
) extends Serializable {

  /** HMRL multi-scale window sizes (binary-tree levels): powers of two from
    * the leaf size 4 up to p2, never exceeding a quarter of the column so an
    * aggregated series keeps at least 4 points. The cap at p2 is what makes
    * performance fall off once the true aggregation window exceeds P2
    * (Table IV).
    */
  def daWindows(nRows: Int): Array[Int] = {
    if (!useDa) return Array.empty
    val cap = math.min(p2, nRows / 4)
    Iterator.iterate(4)(_ * 2).takeWhile(_ <= cap).toArray
  }

  /** Chart-table feature dimensionality of this variant's head. */
  def featureDim: Int = if (useHcman) 6 else 3

  def withWeights(w: Array[Double]): FcmConfig = copy(weights = w)

  /** Head weights; untrained fallback keeps ranking usable in unit tests. */
  def headWeights: Array[Double] =
    if (weights != null) weights
    else if (useHcman) Array(-3.0, 2.0, 1.5, 1.0, 0.5, 1.0, 1.0)
    else Array(-2.0, 2.0, 1.0, 0.5)
}

/** Segment-level embedding of one line of a chart. */
final case class LineEmb(
    segs: Array[Array[Double]],
    pos: Array[Double],
    pooled: Array[Double],
    rawMin: Double,
    rawMax: Double
) extends Serializable

/** Segment-level embedding of a whole chart plus the tick-derived y-range. */
final case class ChartEmb(lines: Array[LineEmb], yLo: Double, yHi: Double) extends Serializable {
  def m: Int = lines.length
}

/** One DA "expert" variant of a column: the column aggregated by operator
  * `op` with window `window`, then z-normalised and segmented. Plays the
  * role of the transformation layer output at one HMRL scale.
  */
final case class DaVariant(
    op: Int,
    window: Int,
    segs: Array[Array[Double]],
    pos: Array[Double]
) extends Serializable {
  lazy val pooled: Array[Double] = Features.pool(segs)
}

/** Segment-level embedding of one column, with raw stats for the
  * range-overlap feature and the interval-tree index.
  */
final case class ColumnEmb(
    colIdx: Int,
    nRows: Int,
    min: Double,
    max: Double,
    sum: Double,
    segs: Array[Array[Double]],
    pos: Array[Double],
    variants: Array[DaVariant]
) extends Serializable {
  lazy val pooled: Array[Double] = Features.pool(segs)
}

/** Segment-level embedding of a whole table. */
final case class TableEmb(tableId: Long, cols: Array[ColumnEmb]) extends Serializable
