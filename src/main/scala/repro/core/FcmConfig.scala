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

  /** Names the table encoding this config gives: `DatasetEncoder` reads
    * `p2` and, through `daWindows`, `useDa`, and no other field. Configs
    * with equal keys encode every table identically.
    */
  def encodingKey: String = s"fcm(p2=$p2, useDa=$useDa)"

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
final case class LineEmb(segs: Array[Array[Double]], pos: Array[Double], pooled: Array[Double]) extends Serializable

/** Segment-level embedding of a whole chart plus the tick-derived y-range. */
final case class ChartEmb(lines: Array[LineEmb], yLo: Double, yHi: Double) extends Serializable {
  def m: Int = lines.length
}

/** One MoE expert of a column. A DA view (op > 0) is the column aggregated
  * by operator `op` with window `window`, then z-normalised and segmented:
  * the transformation layer output at one HMRL scale. The identity expert
  * (op 0, window 0) holds the column's base segments.
  */
final case class DaVariant(
    op: Int,
    window: Int,
    segs: Array[Array[Double]],
    pos: Array[Double]
) extends Serializable

/** The segments of every MoE expert of a table's columns, stored
  * dimension-major: `feats(k)(n)` is feature k of segment n. The experts
  * are each column's identity (its base segments), columns in order, then
  * each column's materialised DA views, columns in order. Expert `e`
  * holds segments `starts(e)` until `starts(e + 1)`; the identity of
  * column c is expert c, and its views are experts `views(c)` until
  * `views(c + 1)`. The identity segments thus come first, so a pass
  * without DA reads one prefix of the block.
  *
  * `Matcher` computes a line segment's distance to every segment of the
  * block in one pass over each feature array, a loop HotSpot vectorises.
  * The block is the only store of the segment values: `ColumnEmb.segs` and
  * `ColumnEmb.variants` are rebuilt from it. `TableEmb.apply` builds the
  * block of every encoded table and column; `Matcher.pairFeatures` builds
  * one for a bare list of column segments.
  *
  * @param pooled  each expert's pooled vector (`Features.pool` of its
  *                segments), computed when the block is built
  * @param ops     each expert's operator id, 0 for an identity
  * @param windows each expert's window, 0 for an identity
  */
final class ExpertBlock private (
    val feats: Array[Array[Double]],
    val pos: Array[Double],
    val starts: Array[Int],
    val pooled: Array[Array[Double]],
    val ops: Array[Int],
    val windows: Array[Int],
    val views: Array[Int]
) extends Serializable {

  /** Expert `e` as a view: its segments copied back out row-major. */
  def expert(e: Int): DaVariant = {
    val from = starts(e)
    val n    = starts(e + 1) - from
    DaVariant(ops(e), windows(e), Array.tabulate(n)(i => Array.tabulate(Features.Dim)(feats(_)(from + i))),
      java.util.Arrays.copyOfRange(pos, from, from + n))
  }
}

object ExpertBlock {

  /** The block of `cols`, each given as its identity expert followed by
    * its views.
    */
  private[core] def apply(cols: Array[Array[DaVariant]]): ExpertBlock = {
    val order = cols.map(_.head) ++ cols.flatMap(_.tail)
    val views = cols.scanLeft(cols.length)(_ + _.length - 1)
    val starts = order.scanLeft(0)(_ + _.segs.length)
    val feats  = Array.ofDim[Double](Features.Dim, starts.last)
    val pos    = new Array[Double](starts.last)
    var e = 0
    while (e < order.length) {
      val x = order(e)
      var i = 0
      while (i < x.segs.length) {
        var k = 0
        while (k < Features.Dim) { feats(k)(starts(e) + i) = x.segs(i)(k); k += 1 }
        pos(starts(e) + i) = x.pos(i)
        i += 1
      }
      e += 1
    }
    new ExpertBlock(feats, pos, starts, order.map(x => Features.pool(x.segs)), order.map(_.op), order.map(_.window), views)
  }
}

/** One column as `DatasetEncoder` computes it, before it is stored: its
  * raw stats and its experts, the identity first, then the materialised
  * views. `TableEmb.apply` builds encoded tables and columns from these.
  */
final case class ColumnExperts(colIdx: Int, nRows: Int, min: Double, max: Double, sum: Double, experts: Array[DaVariant])

/** Segment-level embedding of one column, with raw stats for the
  * range-overlap feature and the interval-tree index. Its segments live in
  * `block`, in which it is column `at`. Only `TableEmb.apply` builds one; a
  * lone column is the one column of its table.
  */
final class ColumnEmb private[core] (
    val colIdx: Int,
    val nRows: Int,
    val min: Double,
    val max: Double,
    val sum: Double,
    val block: ExpertBlock,
    val at: Int
) extends Serializable {

  /** The base segments, rebuilt from the block. */
  def segs: Array[Array[Double]] = block.expert(at).segs
  def pos: Array[Double]         = java.util.Arrays.copyOfRange(block.pos, block.starts(at), block.starts(at + 1))
  def pooled: Array[Double]      = block.pooled(at)

  /** The materialised DA views, rebuilt from the block. */
  def variants: Array[DaVariant] = Array.range(block.views(at), block.views(at + 1)).map(block.expert)
}

/** Segment-level embedding of a whole table: its columns share `block`, in
  * which column c is `cols(c)`.
  */
final class TableEmb private (val tableId: Long, val cols: Array[ColumnEmb], val block: ExpertBlock)
    extends Serializable

object TableEmb {

  /** The table of `cols`, whose experts it stores in one block, columns in
    * order. Every encoded table and column is made here.
    */
  def apply(tableId: Long, cols: Array[ColumnExperts]): TableEmb = {
    val block = ExpertBlock(cols.map(_.experts))
    new TableEmb(tableId, cols.zipWithIndex.map { case (c, i) => new ColumnEmb(c.colIdx, c.nRows, c.min, c.max, c.sum, block, i) }, block)
  }
}

