package repro.core

import scala.util.Random

/** FCM head training (paper Sec. V-E and appendix B/E).
  *
  * Positives are the benchmark's (chart, source table) pairs; for each
  * positive, `nNeg` negatives are mined inside its mini-batch by ranking
  * `Rel(D, T)` with one of the four strategies (semi-hard / random / hard /
  * easy). The head is then fit by gradient descent on the weighted binary
  * cross-entropy of Eq. 2.
  */
object Training {

  sealed trait NegStrategy extends Serializable
  object NegStrategy {
    case object SemiHard extends NegStrategy
    case object Rand     extends NegStrategy
    case object Hard     extends NegStrategy
    case object Easy     extends NegStrategy
  }

  /** Pick `nNeg` negative candidate indices for a positive at `posIdx`,
    * given relevance scores of every candidate in the mini-batch.
    */
  def selectNegatives(
      rel: Array[Double],
      posIdx: Int,
      nNeg: Int,
      strategy: NegStrategy,
      rng: Random
  ): Seq[Int] = {
    val candidates = rel.indices.filter(_ != posIdx)
    if (candidates.isEmpty) return Seq.empty
    val n = math.min(nNeg, candidates.length)
    strategy match {
      case NegStrategy.Rand => rng.shuffle(candidates.toList).take(n)
      case NegStrategy.Hard => candidates.sortBy(i => -rel(i)).take(n)
      case NegStrategy.Easy => candidates.sortBy(i => rel(i)).take(n)
      case NegStrategy.SemiHard =>
        val ranked = candidates.sortBy(i => -rel(i))
        val start  = math.max(0, (ranked.length - n) / 2)
        ranked.slice(start, start + n)
    }
  }

  /** One labelled training example: feature vector and {0,1} label. */
  final case class Example(x: Array[Double], y: Double)

  /** Eq. 2 loss of weights `w` (bias first) over `examples`. */
  def loss(examples: Seq[Example], w: Array[Double]): Double = {
    val nPos = math.max(1, examples.count(_.y > 0.5))
    val nNeg = math.max(1, examples.count(_.y < 0.5))
    var l = 0.0
    examples.foreach { ex =>
      var z = w(0)
      var i = 0
      while (i < ex.x.length) { z += w(i + 1) * ex.x(i); i += 1 }
      val p = math.min(1 - 1e-12, math.max(1e-12, Matcher.sigmoid(z)))
      l -= (if (ex.y > 0.5) math.log(p) / nPos else math.log(1 - p) / nNeg)
    }
    l
  }

  /** Learning rate, L2 penalty and number of epochs of `trainLogistic`. */
  private val LearningRate = 1.0
  private val L2           = 1e-4
  private val Epochs       = 400

  /** Full-batch gradient descent on Eq. 2 with a small L2 penalty.
    * Deterministic given the example order. Returns the learned weights
    * (bias first, length dim+1).
    */
  def trainLogistic(examples: Seq[Example], dim: Int): Array[Double] = {
    val w = new Array[Double](dim + 1)
    if (examples.isEmpty) return w
    val nPos = math.max(1, examples.count(_.y > 0.5))
    val nNeg = math.max(1, examples.count(_.y < 0.5))
    var epoch = 0
    while (epoch < Epochs) {
      val g = new Array[Double](dim + 1)
      examples.foreach { ex =>
        var z = w(0)
        var i = 0
        while (i < ex.x.length) { z += w(i + 1) * ex.x(i); i += 1 }
        val p = Matcher.sigmoid(z)
        val e = (p - ex.y) / (if (ex.y > 0.5) nPos else nNeg)
        g(0) += e
        i = 0
        while (i < ex.x.length) { g(i + 1) += e * ex.x(i); i += 1 }
      }
      var i = 0
      while (i < w.length) {
        w(i) -= LearningRate * (g(i) + L2 * w(i))
        i += 1
      }
      epoch += 1
    }
    w
  }

  /** One training pack: the extracted chart lines (re-encodable under any
    * FcmConfig), the tick-derived y-range, the prepared underlying data
    * (for `Rel(D,T)` negative mining) and the raw table columns.
    */
  final case class TrainPack(
      extractedLines: Array[Array[Double]],
      yLo: Double,
      yHi: Double,
      underlyingPrepared: Array[Array[Double]],
      rawCols: Array[Array[Double]]
  ) extends Serializable

  /** Seed of `trainHead`'s shuffle and negative sampling, and the size of
    * the mini-batches its negatives are mined in.
    */
  private val Seed      = 7L
  private val BatchSize = 16

  /** Build labelled examples from training packs with mini-batch negative
    * mining, then fit the head. Table embeddings are encoded once under
    * `cfg`. Returns the trained head weights.
    */
  def trainHead(
      packs: Array[TrainPack],
      cfg: FcmConfig,
      nNeg: Int,
      strategy: NegStrategy
  ): Array[Double] = {
    val rng = new Random(Seed)
    val charts = packs.map(p =>
      ChartEncoder.encode(repro.vis.ExtractedChart(p.extractedLines, p.yLo, p.yHi), cfg)
    )
    val embs = packs.map(p => DatasetEncoder.encodeTable(-1L, p.rawCols, cfg))
    val preparedCols = packs.map(_.rawCols.map(Relevance.prep))
    val order = rng.shuffle(packs.indices.toList)
    val examples = Seq.newBuilder[Example]
    order.grouped(BatchSize).foreach { batch =>
      val idx = batch.toArray
      idx.foreach { i =>
        // `selectNegatives` never reads the positive's own entry
        val rel = idx.map { j =>
          if (j == i) 0.0 else Relevance.relPrepared(packs(i).underlyingPrepared, preparedCols(j))
        }
        val posLocal = idx.indexOf(i)
        examples += Example(Matcher.features(charts(i), embs(i), cfg), 1.0)
        selectNegatives(rel, posLocal, nNeg, strategy, rng).foreach { jLocal =>
          examples += Example(Matcher.features(charts(i), embs(idx(jLocal)), cfg), 0.0)
        }
      }
    }
    trainLogistic(examples.result(), cfg.featureDim)
  }
}
