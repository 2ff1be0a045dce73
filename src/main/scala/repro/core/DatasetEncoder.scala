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
  */
object DatasetEncoder {

  /** Encode one column under `cfg`. Only the finite cells are encoded: a
    * column with no finite cell encodes as an empty column.
    *
    * A variant whose z-normalised series equals, bit for bit, that of an
    * earlier variant at the same window is not materialised (in practice
    * `sum`, which is `avg` scaled by a power of two). Equal series give
    * equal pair features, and the MoE gate keeps the first of equal scores,
    * so the dropped variant could never win.
    */
  def encodeColumn(colIdx: Int, column: Array[Double], cfg: FcmConfig): ColumnEmb = {
    var mn     = Double.PositiveInfinity
    var mx     = Double.NegativeInfinity
    var sm     = 0.0
    var finite = 0
    var i      = 0
    while (i < column.length) {
      val v = column(i)
      if (java.lang.Double.isFinite(v)) {
        if (v < mn) mn = v
        if (v > mx) mx = v
        sm += v
        finite += 1
      }
      i += 1
    }
    val values = if (finite == column.length) column else column.filter(java.lang.Double.isFinite)
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
    ColumnEmb(colIdx, values.length, mn, mx, sm, segs, pos, variants.result())
  }

  /** Encode a whole table (all numeric columns). */
  def encodeTable(tableId: Long, cols: Array[Array[Double]], cfg: FcmConfig): TableEmb =
    TableEmb(tableId, cols.zipWithIndex.map { case (c, i) => encodeColumn(i, c, cfg) })
}
