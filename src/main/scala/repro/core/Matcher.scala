package repro.core

/** Cross-modal matcher (paper Sec. IV-D) — the HCMAN substitute.
  *
  * Two matching levels, as in the paper:
  *  - SL-SAN (segment level): soft-attention alignment between line
  *    segments and data segments with a positional prior, producing a
  *    5-dim pair feature vector per (line, column-variant);
  *  - MoE gate (Sec. V-D): a sparse top-1 choice among the identity expert
  *    and one expert per aggregation operator (each at its best HMRL
  *    scale); an aggregation expert wins only if it beats the identity
  *    expert by `GateMargin`, and one whose pre-score bound shows it
  *    cannot win skips its attention pass, which changes no choice;
  *  - LL-SAN (line-to-column level): attention plus exact bipartite
  *    assignment over the pair scores, producing a 6-dim chart-level
  *    feature vector;
  *  - head: a trained logistic unit maps features to `Rel'(V, T)` — the
  *    paper's final MLP.
  *
  * The FCM-HCMAN ablation (Table V) replaces all of it with pooled-vector
  * similarity, exactly as Sec. VII-D describes.
  *
  * The SL-SAN kernel reads a table's segments from its dimension-major
  * `ExpertBlock`. `tableFeatures` computes each line segment's distance to
  * every expert segment of the table in one pass (`Features.distances`,
  * with `sim`'s operation order, so every distance is that of `sim`), and
  * each MoE expert reads its slice of those distances. An aggregation
  * expert's stage one works on distances, not similarities: the similarity
  * never increases with the distance, so a best similarity is the
  * similarity of a smallest distance, one exp per row and per column
  * instead of one per entry. Every score, feature and op is bit for bit
  * that of computing each similarity with `Features.sim`.
  */
object Matcher {

  /** Fixed combiner turning a 5-dim pair feature vector into a scalar pair
    * score used by the LL-SAN attention and the bipartite assignment.
    */
  private val PairCombiner = Array(0.35, 0.25, 0.20, 0.10, 0.10)

  val PairFeatDim = 5

  /** Softmax temperature of the SL-SAN and LL-SAN attention. */
  val AttnKappa = 6.0

  def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  /** SL-SAN: segment-level soft alignment between one line and one column
    * variant. Features (all in [0,1]):
    *   0 soft-attention alignment quality (query=line segments)
    *   1 mean best-match similarity per line segment
    *   2 coverage: mean best-match similarity per data segment
    *   3 positional consistency of the best matches
    *   4 global (pooled) similarity
    *
    * The kernel has no configurable parameter (`Features.Tau` and
    * `AttnKappa` are constants), so `cfg` does not change the result.
    */
  def pairFeatures(
      lSegs: Array[Array[Double]],
      lPos: Array[Double],
      cSegs: Array[Array[Double]],
      cPos: Array[Double],
      cfg: FcmConfig
  ): Array[Double] =
    pairFeatures(lSegs, lPos, Features.pool(lSegs), cSegs, cPos, Features.pool(cSegs), Double.NegativeInfinity)

  /** Slack on `bestMean` in the pre-score bound. It covers the rounding by
    * which the computed attention-weighted mean can exceed the computed
    * `bestMean`: about 2·(nl + nc + 1)·2⁻⁵³ relative, far below 1e-9 for
    * any segment count that fits in memory.
    */
  private val BoundSlack = 1.0 + 1e-9

  /** The SL-SAN kernel on given segments, with both sides' pooled vectors
    * supplied by the caller; `null` when the pair's pre-score provably
    * cannot exceed `bar` (see `expertFeatures`). The column side is put in
    * a block of its own.
    */
  private[core] def pairFeatures(
      lSegs: Array[Array[Double]],
      lPos: Array[Double],
      lPool: Array[Double],
      cSegs: Array[Array[Double]],
      cPos: Array[Double],
      cPool: Array[Double],
      bar: Double
  ): Array[Double] = {
    val b    = ExpertBlock(Array(Array(DaVariant(0, 0, cSegs, cPos))))
    val dist = distanceRows(lSegs, b.starts(1))
    addDistances(lSegs, b, 0, 1, dist)
    expertFeatures(lPos, lPool, dist, b, 0, cPool, bar)
  }

  /** One row per line segment, to hold its distances to `n` block segments. */
  private def distanceRows(lSegs: Array[Array[Double]], n: Int): Array[Array[Double]] = {
    val dist = new Array[Array[Double]](lSegs.length)
    var j = 0
    while (j < dist.length) { dist(j) = new Array[Double](n); j += 1 }
    dist
  }

  /** Fills `dist(j)` with line segment j's distances to the segments of
    * experts `e0` until `e1` of `b`.
    */
  private def addDistances(lSegs: Array[Array[Double]], b: ExpertBlock, e0: Int, e1: Int, dist: Array[Array[Double]]): Unit = {
    var j = 0
    while (j < lSegs.length) { Features.distances(lSegs(j), b.feats, b.starts(e0), b.starts(e1), dist(j)); j += 1 }
  }

  /** `s(j * nc + n)`: the similarity of line segment j to segment n of the
    * expert whose segments start at block index `o`.
    */
  private def similarities(dist: Array[Array[Double]], o: Int, nc: Int): Array[Double] = {
    val s = new Array[Double](dist.length * nc)
    var j = 0
    while (j < dist.length) {
      var n = 0
      while (n < nc) { s(j * nc + n) = Features.simOfDist(dist(j)(o + n)); n += 1 }
      j += 1
    }
    s
  }

  /** Below this similarity the `guard` is +∞: its proof needs a normal
    * `Math.exp` result.
    */
  private val GuardedSim = math.scalb(1.0, -1000)
  private val GuardRel   = 1.0 + math.scalb(1.0, -18)
  private val GuardAbs   = math.scalb(1.0, -74)

  /** A distance above `guard(dMin, best)` has a similarity below `best`,
    * the similarity of the row's smallest distance `dMin`. Distances that
    * differ can give equal similarities (0 and 1e-33 both give 1.0), but
    * only one within this guard of `dMin` can. Equal similarities
    * r ≥ 2⁻¹⁰⁰⁰ put the two exponents within 2⁻⁴⁹ of each other (`Math.exp`
    * is within 1 ulp), and each exponent is within 3·2⁻⁵³ relative of
    * √(d/WSum)/Tau (three correctly rounded operations). So
    * √d ≤ √dMin·(1 + 7·2⁻⁵³) + 2⁻⁴⁸, hence d ≤ dMin·(1 + 2⁻¹⁹) + 2⁻⁷⁵; the
    * guard doubles both terms to absorb its own rounding. Below 2⁻¹⁰⁰⁰ the
    * guard is +∞.
    */
  private def guard(dMin: Double, best: Double): Double =
    if (best >= GuardedSim) dMin * GuardRel + GuardAbs else Double.PositiveInfinity

  /** The first index in `row(o) … row(o + nMin)` whose similarity equals
    * `best`, where `nMin` is the first index of the row's smallest distance
    * `dMin` and `best = simOfDist(dMin) > 0`: the index the similarity scan
    * `v > best` keeps. A NaN distance is never a candidate.
    */
  private def firstBest(row: Array[Double], o: Int, nMin: Int, best: Double): Int = {
    var n = 0
    while (n < nMin) {
      if (Features.simOfDist(row(o + n)) == best) return n
      n += 1
    }
    nMin
  }

  /** SL-SAN features of a line against expert `e` of `b`, from the line
    * segments' distances `dist(j)(n)` to the block's segments, in two
    * stages; `null` when the pair's pre-score provably cannot exceed `bar`.
    *
    * Stage one computes `bestMean`, `coverage`, `posCons` and `globalSim`.
    * With `bar` = −∞ (the identity expert) it fills the similarity matrix
    * first and scans it. Otherwise it scans the distances: `simOfDist` never
    * increases with the distance, so a row's best similarity, and each
    * column's best, is the similarity of its smallest distance (a NaN
    * distance is never a best), one exp per row and per column. The scan's
    * `bestN` is the first index of the row's best similarity: a row whose
    * similarities all underflow to 0 keeps 0, and otherwise it is the first
    * smallest distance unless an earlier distance lies within the `guard`,
    * which the running minimum before that index tells; only then does
    * `firstBest` compare similarities.
    *
    * Stage two is the attention pass, `nc` exps per line segment, giving
    * `softAlign`. An attention-weighted mean of a row is at most the row's
    * best similarity, so `softAlign ≤ bestMean` up to rounding, and
    * `preScore` is monotone in each feature under round-to-nearest. Hence
    * the pre-score is at most `preScore` of the stage-one features with
    * `bestMean·BoundSlack` in place of `softAlign`, and when that bound is
    * ≤ `bar` stage two is skipped. With `bar` = −∞ both stages always run.
    * Either way every feature is bit for bit that of the full kernel.
    */
  private def expertFeatures(
      lPos: Array[Double],
      lPool: Array[Double],
      dist: Array[Array[Double]],
      b: ExpertBlock,
      e: Int,
      cPool: Array[Double],
      bar: Double
  ): Array[Double] = {
    val nl = dist.length
    val o  = b.starts(e)
    val nc = b.starts(e + 1) - o
    if (nl == 0 || nc == 0) return Array.fill(PairFeatDim)(0.0)
    val eager   = bar == Double.NegativeInfinity
    var s       = if (eager) similarities(dist, o, nc) else null // row-major: s(j * nc + n)
    val colBest = new Array[Double](nc)                          // best match per data segment
    var bestMean = 0.0
    var posDev   = 0.0
    var j = 0
    var n = 0
    if (eager) {
      while (j < nl) {
        val row = j * nc
        var best = 0.0
        var bestN = 0
        n = 0
        while (n < nc) {
          val v = s(row + n)
          if (v > best) { best = v; bestN = n }
          if (v > colBest(n)) colBest(n) = v
          n += 1
        }
        bestMean += best
        posDev += math.abs(lPos(j) - b.pos(o + bestN))
        j += 1
      }
    } else {
      val colMin = new Array[Double](nc)
      java.util.Arrays.fill(colMin, Double.PositiveInfinity)
      while (j < nl) {
        val row  = dist(j)
        var dMin = Double.PositiveInfinity
        var nMin = 0
        var prev = Double.PositiveInfinity // smallest distance before nMin
        n = 0
        while (n < nc) {
          val d = row(o + n)
          if (d < dMin) { prev = dMin; dMin = d; nMin = n }
          if (d < colMin(n)) colMin(n) = d
          n += 1
        }
        val best  = Features.simOfDist(dMin)
        val bestN =
          if (!(best > 0.0)) 0
          else if (prev <= guard(dMin, best)) firstBest(row, o, nMin, best)
          else nMin
        bestMean += best
        posDev += math.abs(lPos(j) - b.pos(o + bestN))
        j += 1
      }
      n = 0
      while (n < nc) { colBest(n) = Features.simOfDist(colMin(n)); n += 1 }
    }
    bestMean /= nl
    val posCons = math.max(0.0, 1.0 - 2.0 * posDev / nl)
    var coverage = 0.0
    n = 0
    while (n < nc) { coverage += colBest(n); n += 1 }
    coverage /= nc
    val globalSim = Features.sim(lPool, cPool)
    val f = Array(bestMean * BoundSlack, bestMean, coverage, posCons, globalSim)
    if (preScore(f) <= bar) return null
    if (!eager) s = similarities(dist, o, nc)

    val z = new Array[Double](nc) // one line segment's attention logits
    var softAlign = 0.0
    j = 0
    while (j < nl) {
      // attention logits: similarity biased towards positionally close segments
      val row = j * nc
      n = 0
      while (n < nc) { z(n) = AttnKappa * s(row + n) - 3.0 * math.abs(lPos(j) - b.pos(o + n)); n += 1 }
      softAlign += attend(z, s, row)
      j += 1
    }
    f(0) = softAlign / nl
    f
  }

  /** The attention of both HCMAN levels: `Σ e(k)·v(o + k) / Σ e(k)` over
    * k < `z.length` in index order, with `e = exp(z − max z)`.
    */
  private def attend(z: Array[Double], v: Array[Double], o: Int): Double = {
    var zMax = Double.NegativeInfinity
    var k = 0
    while (k < z.length) { if (z(k) > zMax) zMax = z(k); k += 1 }
    var den = 0.0
    var num = 0.0
    k = 0
    while (k < z.length) {
      val e = math.exp(z(k) - zMax)
      den += e
      num += e * v(o + k)
      k += 1
    }
    num / den
  }

  /** Scalar pre-score of a pair feature vector (used for gating/attention). */
  def preScore(f: Array[Double]): Double = {
    var s = 0.0
    var wSum = 0.0
    var i = 0
    while (i < f.length) { s += PairCombiner(i) * f(i); wSum += PairCombiner(i); i += 1 }
    if (wSum > 0) s / wSum else 0.0
  }

  /** Margin by which an aggregation expert must beat the identity expert
    * before the gate hands the pair to it. The sparse gate keeps plain
    * (non-DA) scoring identical to the DA-free model — "best of many
    * variants" would otherwise inflate weak matches on unrelated tables.
    */
  val GateMargin = 0.02

  /** Sparse (top-1) Mixture-of-Experts over the identity expert and the
    * four per-operator transformation experts, each taken at its best HMRL
    * scale — the sparsely-gated MoE of the paper's citation [35]. Returns
    * the winning expert's pair features and the id of the inferred
    * operator (0 = identity).
    *
    * An aggregation expert runs its SL-SAN attention pass only if its
    * pre-score bound (`softAlign ≤ bestMean`, see `expertFeatures`) exceeds
    * both the running best and the identity's pre-score plus `GateMargin`.
    * An expert bounded by the running best cannot replace it, which takes a
    * strictly higher pre-score; one bounded by the gate bar cannot win the
    * gate, and any expert that beats the bar is never skipped. So the
    * winner, its features and the op are bit for bit those of running
    * every expert in full.
    */
  def daPairFeatures(
      line: LineEmb,
      col: ColumnEmb,
      cfg: FcmConfig
  ): (Array[Double], Int) = {
    val b    = col.block
    val dist = distanceRows(line.segs, b.starts.last)
    addDistances(line.segs, b, col.at, col.at + 1, dist)
    if (cfg.useDa) addDistances(line.segs, b, b.views(col.at), b.views(col.at + 1), dist)
    moe(line, dist, b, col.at, cfg.useDa)
  }

  /** The MoE of `line` against column `c` of `b`, given the line segments'
    * distances to every segment of the column's experts.
    */
  private def moe(line: LineEmb, dist: Array[Array[Double]], b: ExpertBlock, c: Int, useDa: Boolean): (Array[Double], Int) = {
    val identity = expertFeatures(line.pos, line.pooled, dist, b, c, b.pooled(c), Double.NegativeInfinity)
    if (!useDa || b.views(c) == b.views(c + 1)) return (identity, 0)

    val gateBar = preScore(identity) + GateMargin
    var bestOp = 0
    var bestFeat = identity
    var bestScore = Double.NegativeInfinity
    var e = b.views(c)
    while (e < b.views(c + 1)) {
      val f = expertFeatures(line.pos, line.pooled, dist, b, e, b.pooled(e), math.max(bestScore, gateBar))
      if (f != null) {
        val u = preScore(f)
        if (u > bestScore) { bestScore = u; bestFeat = f; bestOp = b.ops(e) }
      }
      e += 1
    }
    if (bestScore > gateBar) (bestFeat, bestOp) else (identity, 0)
  }

  /** Fraction of the chart's y-range covered by the column's feasible
    * interval. With DA enabled the interval is the hull of {0, min(C),
    * max(C), sum(C)}, so a column of positive cells gets [0, sum(C)];
    * without DA it is [min, max]. The index (`HybridIndex.build`) stores
    * [min(min, sum), max(max, sum)] instead, [min(C), sum(C)] for a
    * positive column.
    */
  def rangeOverlap(chart: ChartEmb, col: ColumnEmb, useDa: Boolean): Double = {
    val lo = if (useDa) math.min(col.min, math.min(col.sum, 0.0)) else col.min
    val hi = if (useDa) math.max(col.max, math.max(col.sum, 0.0)) else col.max
    val span = math.max(chart.yHi - chart.yLo, 1e-9)
    val inter = math.min(chart.yHi, hi) - math.max(chart.yLo, lo)
    math.max(0.0, math.min(1.0, inter / span))
  }

  /** The largest `rangeOverlap` of the table's columns, 0 without columns. */
  private def maxOverlap(chart: ChartEmb, tab: TableEmb, useDa: Boolean): Double = {
    var b4 = 0.0
    var c  = 0
    while (c < tab.cols.length) { val ov = rangeOverlap(chart, tab.cols(c), useDa); if (ov > b4) b4 = ov; c += 1 }
    b4
  }

  /** LL-SAN + chart-level feature assembly (6 dims, HCMAN variant). */
  def tableFeatures(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] = {
    val m  = chart.m
    val nc = tab.cols.length
    if (m == 0 || nc == 0) return Array.fill(cfg.featureDim)(0.0)
    val u     = Array.ofDim[Double](m, nc)
    val align = Array.ofDim[Double](m, nc)
    // one distance pass per line segment over every expert of the table:
    // the identity experts, a prefix of the block, and with DA the views
    val b       = tab.block
    val experts = if (cfg.useDa) b.starts.length - 1 else nc
    var i = 0
    while (i < m) {
      val line = chart.lines(i)
      val dist = distanceRows(line.segs, b.starts(experts))
      addDistances(line.segs, b, 0, experts, dist)
      var c = 0
      while (c < nc) {
        val (f, _) = moe(line, dist, b, c, cfg.useDa)
        u(i)(c) = preScore(f)
        align(i)(c) = f(0)
        c += 1
      }
      i += 1
    }
    val (matchW, assign) = Matching.maxWeight(u)
    val b1 = matchW / m
    var b2 = 0.0
    var b3 = 0.0
    val z  = new Array[Double](nc) // one line's attention logits
    i = 0
    while (i < m) {
      var best = 0.0
      var c = 0
      while (c < nc) {
        if (u(i)(c) > best) best = u(i)(c)
        z(c) = AttnKappa * u(i)(c)
        c += 1
      }
      b2 += best
      b3 += attend(z, u(i), 0)
      i += 1
    }
    b2 /= m
    b3 /= m
    val b4 = maxOverlap(chart, tab, cfg.useDa)
    var matched = 0
    var alignSum = 0.0
    i = 0
    while (i < m) {
      if (assign(i) >= 0 && u(i)(assign(i)) > 0.25) matched += 1
      if (assign(i) >= 0) alignSum += align(i)(assign(i))
      i += 1
    }
    val b5 = matched.toDouble / m
    val b6 = alignSum / m
    Array(b1, b2, b3, b4, b5, b6)
  }

  /** FCM-HCMAN ablation features (3 dims): pooled representations compared
    * coarsely, exactly as the Table V variant describes.
    */
  def hcmanOffFeatures(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] = {
    if (chart.m == 0 || tab.cols.isEmpty) return Array.fill(cfg.featureDim)(0.0)
    val chartPool = Features.pool(chart.lines.map(_.pooled))
    val tabPool   = Features.pool(tab.cols.map(_.pooled))
    Array(Features.sim(chartPool, tabPool), Features.cosine(chartPool, tabPool), maxOverlap(chart, tab, cfg.useDa))
  }

  /** Chart-table feature vector of the configured variant. */
  def features(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] =
    if (cfg.useHcman) tableFeatures(chart, tab, cfg) else hcmanOffFeatures(chart, tab, cfg)

  /** The relevance estimate `Rel'(V, T)` of this FCM variant: exactly 0
    * for a chart without lines or a table without a non-empty column, as
    * the ground truth `Rel` is.
    */
  def score(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Double =
    if (chart.m == 0 || tab.cols.forall(_.nRows == 0)) 0.0
    else sigmoid(logit(cfg.headWeights, features(chart, tab, cfg)))

  /** The head's logit `w(0) + Σ w(i+1)·x(i)` in index order (bias first). */
  def logit(w: Array[Double], x: Array[Double]): Double = {
    var z = w(0)
    var i = 0
    while (i < x.length) { z += w(i + 1) * x(i); i += 1 }
    z
  }
}
