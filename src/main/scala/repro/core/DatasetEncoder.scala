package repro.core

import repro.vis.AggOp

/** Segment-level dataset encoder (paper Sec. IV-C) with the three
  * DA-related layers of Sec. V folded in:
  *
  *  - base segments: the column z-normalised and split into `p2`-cell
  *    segments (the Sec. IV-C encoder);
  *  - transformation layers: one aggregated view of the column per
  *    operator (avg/sum/max/min) — applying the operator *is* the
  *    transformation the paper's per-operator MLP learns;
  *  - HMRL: each operator is materialised at every binary-tree window size
  *    {4, 8, ..., p2}, giving the multi-scale representation;
  *  - the MoE gate consumes these variants inside `Matcher`.
  *
  * A table's segments, base and views, are stored once, in the table's
  * dimension-major `ExpertBlock`, and the kernel reads every expert of the
  * table in one pass per line segment. `experts` computes each column's raw
  * stats and experts; `encodeTable` and `encodeColumn` both hand them to
  * `TableEmb.apply`, which builds the block with the rest of the encoding.
  */
object DatasetEncoder {

  /** Encode one column under `cfg`. Only the finite cells are encoded: a
    * column with no finite cell encodes as an empty column. Finite cells of
    * any magnitude keep their shape (see `Features.overflowScale`).
    *
    * A variant whose z-normalised series equals, bit for bit, that of an
    * earlier variant at the same window is not materialised (in practice
    * `sum`, which is `avg` scaled by a power of two). Equal series give
    * equal pair features, and the MoE gate keeps the first of equal scores,
    * so the dropped variant could never win.
    */
  def encodeColumn(colIdx: Int, column: Array[Double], cfg: FcmConfig): ColumnEmb =
    TableEmb(-1L, Array(experts(colIdx, column, cfg))).cols(0)

  /** Encode a whole table (all numeric columns) into one block. */
  def encodeTable(tableId: Long, cols: Array[Array[Double]], cfg: FcmConfig): TableEmb =
    TableEmb(tableId, cols.zipWithIndex.map { case (c, i) => experts(i, c, cfg) })

  /** A column's raw stats and its experts: the base segments as a view
    * with op 0, then the materialised views.
    */
  private[core] def experts(colIdx: Int, column: Array[Double], cfg: FcmConfig): ColumnExperts = {
    val finiteCells = Features.finite(column)
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    var sm = 0.0
    var i  = 0
    while (i < finiteCells.length) {
      val v = finiteCells(i)
      if (v < mn) mn = v
      if (v > mx) mx = v
      sm += v
      i += 1
    }
    // Cells large enough to overflow the z-normalisation are scaled by a
    // power of two first, so the views' aggregates do not overflow either;
    // the z-values are unchanged by the scaling. min, max and sum stay raw.
    val scale  = Features.overflowScale(finiteCells)
    val values = if (scale == 1.0) finiteCells else finiteCells.map(_ * scale)
    val z = Features.znorm(values)
    val (segs, pos) = Features.segmentAll(z, cfg.p2)
    val windows  = cfg.daWindows(values.length)
    val seen     = Array.fill(windows.length)(List.empty[Array[Double]]) // materialised views per window
    val variants = Array.newBuilder[DaVariant]
    for (op <- AggOp.all; k <- windows.indices) {
      val w  = windows(k)
      val za = Features.znorm(AggOp.aggregate(values, op, w))
      if (!seen(k).exists(java.util.Arrays.equals(_, za))) {
        seen(k) ::= za
        // Segment the aggregated series so each segment spans the same
        // x-fraction of the column as a base segment does (p2 raw cells
        // aggregate to p2/w points), keeping SL-SAN granularities aligned.
        val segLen = math.max(2, cfg.p2 / w)
        val (s, p) = Features.segmentAll(za, segLen)
        variants += DaVariant(op.id, w, s, p)
      }
    }
    ColumnExperts(colIdx, values.length, mn, mx, sm, DaVariant(0, 0, segs, pos) +: variants.result())
  }
}
