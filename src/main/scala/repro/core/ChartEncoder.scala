package repro.core

import repro.vis.ExtractedChart

/** Segment-level line chart encoder (paper Sec. IV-B): each extracted line
  * (one value per pixel column, in data units) is z-normalised and split
  * into `p1`-pixel segments, each described by a feature vector. The
  * tick-derived y-range rides along for range-overlap features and the
  * interval-tree query.
  */
object ChartEncoder {

  def encodeLine(values: Array[Double], cfg: FcmConfig): LineEmb = {
    val (segs, pos) = Features.segmentAll(Features.znorm(values), cfg.p1)
    LineEmb(segs, pos, Features.pool(segs))
  }

  def encode(ex: ExtractedChart, cfg: FcmConfig): ChartEmb =
    ChartEmb(ex.lines.map(encodeLine(_, cfg)), ex.yLo, ex.yHi)
}
