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
  *    expert by `GateMargin`;
  *  - LL-SAN (line-to-column level): attention plus exact bipartite
  *    assignment over the pair scores, producing a 6-dim chart-level
  *    feature vector;
  *  - head: a trained logistic unit maps features to `Rel'(V, T)` — the
  *    paper's final MLP.
  *
  * The FCM-HCMAN ablation (Table V) replaces all of it with pooled-vector
  * similarity, exactly as Sec. VII-D describes.
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
    pairFeatures(lSegs, lPos, Features.pool(lSegs), cSegs, cPos, Features.pool(cSegs))

  /** `pairFeatures` with both sides' pooled vectors supplied by the caller. */
  private def pairFeatures(
      lSegs: Array[Array[Double]],
      lPos: Array[Double],
      lPool: Array[Double],
      cSegs: Array[Array[Double]],
      cPos: Array[Double],
      cPool: Array[Double]
  ): Array[Double] = {
    val nl = lSegs.length
    val nc = cSegs.length
    if (nl == 0 || nc == 0) return Array.fill(PairFeatDim)(0.0)
    val s = new Array[Double](nl * nc) // row-major: s(j * nc + n)
    var j = 0
    while (j < nl) {
      var n = 0
      while (n < nc) {
        s(j * nc + n) = Features.sim(lSegs(j), cSegs(n))
        n += 1
      }
      j += 1
    }
    val z = new Array[Double](nc) // one line segment's attention logits
    var softAlign = 0.0
    var bestMean  = 0.0
    var posDev    = 0.0
    j = 0
    while (j < nl) {
      // attention logits: similarity biased towards positionally close segments
      val row = j * nc
      var zMax = Double.NegativeInfinity
      var n = 0
      while (n < nc) {
        z(n) = AttnKappa * s(row + n) - 3.0 * math.abs(lPos(j) - cPos(n))
        if (z(n) > zMax) zMax = z(n)
        n += 1
      }
      var den = 0.0
      var num = 0.0
      var best = 0.0
      var bestN = 0
      n = 0
      while (n < nc) {
        val e = math.exp(z(n) - zMax)
        den += e
        num += e * s(row + n)
        if (s(row + n) > best) { best = s(row + n); bestN = n }
        n += 1
      }
      softAlign += num / den
      bestMean += best
      posDev += math.abs(lPos(j) - cPos(bestN))
      j += 1
    }
    softAlign /= nl
    bestMean /= nl
    val posCons = math.max(0.0, 1.0 - 2.0 * posDev / nl)
    var coverage = 0.0
    var n = 0
    while (n < nc) {
      var best = 0.0
      j = 0
      while (j < nl) { if (s(j * nc + n) > best) best = s(j * nc + n); j += 1 }
      coverage += best
      n += 1
    }
    coverage /= nc
    val globalSim = Features.sim(lPool, cPool)
    Array(softAlign, bestMean, coverage, posCons, globalSim)
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
    */
  def daPairFeatures(
      line: LineEmb,
      col: ColumnEmb,
      cfg: FcmConfig
  ): (Array[Double], Int) = {
    val identity = pairFeatures(line.segs, line.pos, line.pooled, col.segs, col.pos, col.pooled)
    if (!cfg.useDa || col.variants.isEmpty) return (identity, 0)

    val idScore = preScore(identity)
    var bestOp = 0
    var bestFeat = identity
    var bestScore = Double.NegativeInfinity
    var i = 0
    while (i < col.variants.length) {
      val v = col.variants(i)
      val f = pairFeatures(line.segs, line.pos, line.pooled, v.segs, v.pos, v.pooled)
      val u = preScore(f)
      if (u > bestScore) { bestScore = u; bestFeat = f; bestOp = v.op }
      i += 1
    }
    if (bestScore > idScore + GateMargin) (bestFeat, bestOp) else (identity, 0)
  }

  /** Fraction of the chart's y-range covered by the column's feasible
    * interval. With DA enabled the interval is the paper's index interval
    * [min(C), sum(C)] extended to negatives; without DA it is [min, max].
    */
  def rangeOverlap(chart: ChartEmb, col: ColumnEmb, useDa: Boolean): Double = {
    val lo = if (useDa) math.min(col.min, math.min(col.sum, 0.0)) else col.min
    val hi = if (useDa) math.max(col.max, math.max(col.sum, 0.0)) else col.max
    val span = math.max(chart.yHi - chart.yLo, 1e-9)
    val inter = math.min(chart.yHi, hi) - math.max(chart.yLo, lo)
    math.max(0.0, math.min(1.0, inter / span))
  }

  /** LL-SAN + chart-level feature assembly (6 dims, HCMAN variant). */
  def tableFeatures(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] = {
    val m  = chart.m
    val nc = tab.cols.length
    if (m == 0 || nc == 0) return Array.fill(cfg.featureDim)(0.0)
    val u     = Array.ofDim[Double](m, nc)
    val align = Array.ofDim[Double](m, nc)
    var i = 0
    while (i < m) {
      var c = 0
      while (c < nc) {
        val (f, _) = daPairFeatures(chart.lines(i), tab.cols(c), cfg)
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
    i = 0
    while (i < m) {
      var best = 0.0
      var zMax = Double.NegativeInfinity
      var c = 0
      while (c < nc) {
        if (u(i)(c) > best) best = u(i)(c)
        if (AttnKappa * u(i)(c) > zMax) zMax = AttnKappa * u(i)(c)
        c += 1
      }
      var den = 0.0
      var num = 0.0
      c = 0
      while (c < nc) {
        val e = math.exp(AttnKappa * u(i)(c) - zMax)
        den += e
        num += e * u(i)(c)
        c += 1
      }
      b2 += best
      b3 += num / den
      i += 1
    }
    b2 /= m
    b3 /= m
    var b4 = 0.0
    var c = 0
    while (c < nc) {
      val ov = rangeOverlap(chart, tab.cols(c), cfg.useDa)
      if (ov > b4) b4 = ov
      c += 1
    }
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
    var b4 = 0.0
    tab.cols.foreach { colEmb =>
      val ov = rangeOverlap(chart, colEmb, cfg.useDa)
      if (ov > b4) b4 = ov
    }
    Array(Features.sim(chartPool, tabPool), Features.cosine(chartPool, tabPool), b4)
  }

  /** Chart-table feature vector of the configured variant. */
  def features(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] =
    if (cfg.useHcman) tableFeatures(chart, tab, cfg) else hcmanOffFeatures(chart, tab, cfg)

  /** The relevance estimate `Rel'(V, T)` of this FCM variant: exactly 0
    * for a chart without lines or a table without a non-empty column, as
    * the ground truth `Rel` is.
    */
  def score(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Double = {
    if (chart.m == 0 || tab.cols.forall(_.nRows == 0)) return 0.0
    val x = features(chart, tab, cfg)
    val w = cfg.headWeights
    var z = w(0)
    var i = 0
    while (i < x.length) { z += w(i + 1) * x(i); i += 1 }
    sigmoid(z)
  }
}
