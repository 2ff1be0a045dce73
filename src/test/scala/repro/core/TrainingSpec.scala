package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.vis.{ChartSpec, Extractor, Raster}

import scala.util.Random

class TrainingSpec extends AnyFunSuite {
  import Training._

  private val rel = Array(0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2)

  test("hard strategy picks the highest-relevance candidates") {
    val rng = new Random(1)
    assert(selectNegatives(rel, 0, 2, NegStrategy.Hard, rng) == Seq(1, 2))
  }

  test("easy strategy picks the lowest-relevance candidates") {
    val rng = new Random(1)
    assert(selectNegatives(rel, 0, 2, NegStrategy.Easy, rng) == Seq(7, 6))
  }

  test("semi-hard strategy picks the middle of the ranking") {
    val rng = new Random(1)
    val picked = selectNegatives(rel, 0, 3, NegStrategy.SemiHard, rng)
    assert(picked.length == 3)
    assert(!picked.contains(1)) // not the hardest
    assert(!picked.contains(7)) // not the easiest
  }

  test("random strategy is seeded and excludes the positive") {
    val a = selectNegatives(rel, 3, 4, NegStrategy.Rand, new Random(5))
    val b = selectNegatives(rel, 3, 4, NegStrategy.Rand, new Random(5))
    assert(a == b)
    assert(!a.contains(3))
    assert(a.distinct.length == 4)
  }

  test("selection never returns more than the candidate pool") {
    val rng = new Random(2)
    assert(selectNegatives(Array(0.5, 0.4), 0, 5, NegStrategy.SemiHard, rng).length == 1)
    assert(selectNegatives(Array(0.5), 0, 3, NegStrategy.Hard, rng).isEmpty)
  }

  test("trainLogistic separates linearly separable data") {
    val rng = new Random(3)
    val examples = (1 to 200).map { _ =>
      val pos = rng.nextBoolean()
      val x   = Array(if (pos) 0.8 + 0.1 * rng.nextGaussian() else 0.2 + 0.1 * rng.nextGaussian())
      Example(x, if (pos) 1.0 else 0.0)
    }
    val w = trainLogistic(examples, dim = 1)
    val acc = examples.count { ex =>
      val p = Matcher.sigmoid(w(0) + w(1) * ex.x(0))
      (p > 0.5) == (ex.y > 0.5)
    }.toDouble / examples.length
    assert(acc > 0.95)
    assert(w(1) > 0.0) // higher feature => more relevant
  }

  test("training reduces the Eq. 2 loss versus zero weights") {
    val rng = new Random(4)
    val examples = (1 to 100).map { _ =>
      val pos = rng.nextBoolean()
      Example(Array(if (pos) 1.0 else 0.0, rng.nextDouble()), if (pos) 1.0 else 0.0)
    }
    val w0 = new Array[Double](3)
    val w  = trainLogistic(examples, dim = 2)
    assert(loss(examples, w) < loss(examples, w0))
  }

  test("loss weights positives and negatives by their counts") {
    val exs = Seq(Example(Array(0.0), 1.0), Example(Array(0.0), 0.0), Example(Array(0.0), 0.0))
    // with w = 0 every prediction is 0.5; the class-balanced loss is 2*ln2
    assert(math.abs(loss(exs, Array(0.0, 0.0)) - 2 * math.log(2.0)) < 1e-9)
  }

  test("trainLogistic on empty input returns zeros") {
    assert(trainLogistic(Seq.empty, 3).forall(_ == 0.0))
  }

  private def makePacks(n: Int): Array[TrainPack] = {
    val rng = new Random(6)
    Array.fill(n) {
      var x = 0.0
      val cols = Array.fill(2)(Array.fill(256) { x += rng.nextGaussian(); x })
      val spec = ChartSpec(Vector(0), None)
      val underlying = ChartSpec.underlying(cols, spec)
      val ex = Extractor.extract(Raster.render(underlying, 240, 120))
      TrainPack(ex.lines, ex.yLo, ex.yHi, underlying.map(Relevance.prep), cols)
    }
  }

  test("trainHead returns a head of the right arity that separates self from others") {
    val packs = makePacks(12)
    val cfg   = FcmConfig()
    val w     = trainHead(packs, cfg, nNeg = 2, NegStrategy.SemiHard)
    assert(w.length == cfg.featureDim + 1)
    assert(w.forall(v => v.isFinite))
    val trained = cfg.withWeights(w)
    // the learned head should still rank a pack's own table first
    val chart = ChartEncoder.encode(repro.vis.ExtractedChart(packs(0).extractedLines, packs(0).yLo, packs(0).yHi), cfg)
    val scores = packs.map(p => Matcher.score(chart, DatasetEncoder.encodeTable(-1, p.rawCols, cfg), trained))
    assert(scores(0) == scores.max)
  }

  test("trainHead works for the HCMAN-off variant") {
    val packs = makePacks(8)
    val cfg   = FcmConfig(useHcman = false)
    val w     = trainHead(packs, cfg, nNeg = 1, NegStrategy.Rand)
    assert(w.length == cfg.featureDim + 1)
  }
}
