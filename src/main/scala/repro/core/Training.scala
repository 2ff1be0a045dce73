package repro.core

import repro.vis.ExtractedChart

import scala.util.Random

/** FCM head training (paper Sec. V-E and appendix B/E).
  *
  * Positives are the benchmark's (chart, source table) pairs; for each
  * positive, `nNeg` semi-hard negatives are mined inside its mini-batch by
  * ranking `Rel(D, T)`. The ranking depends only on the packs, so `mine`
  * computes it once, and `Mined.fit` fits a head from it under any config
  * by gradient descent on the weighted binary cross-entropy of Eq. 2.
  */
object Training {

  /** The negative-mining rule: semi-hard, the one the paper trains with
    * (its Fig. 5 compares three more, which are out of scope).
    */
  sealed trait NegStrategy extends Serializable
  object NegStrategy {
    case object SemiHard extends NegStrategy
  }

  /** The semi-hard negatives of a positive: the middle `nNeg` of its mates'
    * ranking (most relevant first), or all of them if there are fewer.
    */
  def selectNegatives(ranked: Seq[Int], nNeg: Int): Seq[Int] = {
    val n     = math.min(nNeg, ranked.length)
    val start = (ranked.length - n) / 2
    ranked.slice(start, start + n)
  }

  /** One labelled training example: feature vector and {0,1} label. */
  final case class Example(x: Array[Double], y: Double)

  /** Eq. 2 loss of weights `w` (bias first) over `examples`. */
  def loss(examples: Seq[Example], w: Array[Double]): Double = {
    val nPos = math.max(1, examples.count(_.y > 0.5))
    val nNeg = math.max(1, examples.count(_.y < 0.5))
    var l = 0.0
    examples.foreach { ex =>
      val p = math.min(1 - 1e-12, math.max(1e-12, Matcher.sigmoid(Matcher.logit(w, ex.x))))
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
        val e = (Matcher.sigmoid(Matcher.logit(w, ex.x)) - ex.y) / (if (ex.y > 0.5) nPos else nNeg)
        g(0) += e
        var i = 0
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

  /** Seed of `mine`'s shuffle, and the size of its mini-batches. */
  private val Seed      = 7L
  private val BatchSize = 16

  /** Training packs mined for negatives: every positive pack in training
    * order, with its mini-batch mates ranked by `Rel(D, T)`.
    */
  final case class Mined(packs: Array[TrainPack], ranked: Seq[(Int, Seq[Int])]) {

    /** Fit a head under `cfg` on each positive and its `nNeg` semi-hard
      * negatives. Packs are encoded once under `cfg`. Returns the trained
      * head weights.
      */
    def fit(cfg: FcmConfig, nNeg: Int): Array[Double] = {
      val charts = packs.map(p => ChartEncoder.encode(ExtractedChart(p.extractedLines, p.yLo, p.yHi), cfg))
      val embs = packs.map(p => DatasetEncoder.encodeTable(-1L, p.rawCols, cfg))
      val examples = ranked.flatMap { case (i, mates) =>
        def example(j: Int, y: Double) = Example(Matcher.features(charts(i), embs(j), cfg), y)
        example(i, 1.0) +: selectNegatives(mates, nNeg).map(example(_, 0.0))
      }
      trainLogistic(examples, cfg.featureDim)
    }
  }

  /** Shuffle the packs (seed 7), cut them into mini-batches of 16 and rank
    * each positive's mates by `Rel(D, T)`, most relevant first, ties in
    * batch order. Needs no head config.
    */
  def mine(packs: Array[TrainPack]): Mined = {
    val preparedCols = packs.map(_.rawCols.map(Relevance.prep))
    val order = new Random(Seed).shuffle(packs.indices.toList)
    Mined(packs, order.grouped(BatchSize).toSeq.flatMap { batch =>
      batch.map { i =>
        val mates = batch.filter(_ != i).toIndexedSeq
        val rel   = mates.map(j => Relevance.relPrepared(packs(i).underlyingPrepared, preparedCols(j)))
        i -> mates.indices.sortBy(k => -rel(k)).map(mates)
      }
    })
  }

  /** `mine(packs).fit(cfg, nNeg)`; negatives are always semi-hard. */
  def trainHead(packs: Array[TrainPack], cfg: FcmConfig, nNeg: Int, strategy: NegStrategy): Array[Double] =
    mine(packs).fit(cfg, nNeg)
}
