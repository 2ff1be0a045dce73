package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.vis.{ChartSpec, Extractor, Raster}

import scala.util.Random

class TrainingSpec extends AnyFunSuite {
  import Training._

  test("semi-hard strategy picks the middle of the ranking") {
    val picked = selectNegatives(1 to 7, 3)
    assert(picked == Seq(3, 4, 5))
    assert(!picked.contains(1)) // not the hardest
    assert(!picked.contains(7)) // not the easiest
  }

  test("selection never returns more than the candidate pool") {
    assert(selectNegatives(Seq(1), 5) == Seq(1))
    assert(selectNegatives(Seq.empty, 3).isEmpty)
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
    val w     = trainHead(packs, cfg, nNeg = 1, NegStrategy.SemiHard)
    assert(w.length == cfg.featureDim + 1)
  }

  /** `trainHead` as it was before mining was split from fitting: it mined
    * inside every call, and chose among four strategies, of which this keeps
    * the semi-hard branch verbatim. The reference the split must match bit
    * for bit.
    */
  private def referenceTrainHead(packs: Array[TrainPack], cfg: FcmConfig, nNeg: Int): Array[Double] = {
    def selectSemiHard(rel: Array[Double], posIdx: Int, nNeg: Int): Seq[Int] = {
      val candidates = rel.indices.filter(_ != posIdx)
      if (candidates.isEmpty) return Seq.empty
      val n = math.min(nNeg, candidates.length)
      val ranked = candidates.sortBy(i => -rel(i))
      val start  = math.max(0, (ranked.length - n) / 2)
      ranked.slice(start, start + n)
    }
    val rng = new Random(7L)
    val charts = packs.map(p =>
      ChartEncoder.encode(repro.vis.ExtractedChart(p.extractedLines, p.yLo, p.yHi), cfg)
    )
    val embs = packs.map(p => DatasetEncoder.encodeTable(-1L, p.rawCols, cfg))
    val preparedCols = packs.map(_.rawCols.map(Relevance.prep))
    val order = rng.shuffle(packs.indices.toList)
    val examples = Seq.newBuilder[Example]
    order.grouped(16).foreach { batch =>
      val idx = batch.toArray
      idx.foreach { i =>
        val rel = idx.map { j =>
          if (j == i) 0.0 else Relevance.relPrepared(packs(i).underlyingPrepared, preparedCols(j))
        }
        val posLocal = idx.indexOf(i)
        examples += Example(Matcher.features(charts(i), embs(i), cfg), 1.0)
        selectSemiHard(rel, posLocal, nNeg).foreach { jLocal =>
          examples += Example(Matcher.features(charts(i), embs(idx(jLocal)), cfg), 0.0)
        }
      }
    }
    trainLogistic(examples.result(), cfg.featureDim)
  }

  test("trainHead and a fit from mine equal the mine-in-every-call reference in raw weight bits") {
    val packs = makePacks(40) // mini-batches of 16, 16 and 8
    val mined = mine(packs)
    def bits(w: Array[Double]) = w.map(java.lang.Double.doubleToRawLongBits).toSeq
    for {
      cfg  <- Seq(FcmConfig(), FcmConfig(useHcman = false), FcmConfig(useDa = false))
      nNeg <- 1 to 8
    } {
      val expected = bits(referenceTrainHead(packs, cfg, nNeg))
      assert(bits(mined.fit(cfg, nNeg)) == expected, s"fit, $cfg, nNeg $nNeg")
      assert(bits(trainHead(packs, cfg, nNeg, NegStrategy.SemiHard)) == expected, s"trainHead, $cfg, nNeg $nNeg")
    }
  }

  test("mine ranks each positive's mini-batch mates by Rel, most relevant first, ties in batch order") {
    // the last 8 packs repeat the first 8, so Rel ties occur
    val base  = makePacks(12)
    val packs = base ++ base.take(8)
    val mined = mine(packs)
    val positives = mined.ranked.map(_._1)
    assert(positives.sorted == packs.indices)
    val prepared = packs.map(_.rawCols.map(Relevance.prep))
    var ties = 0
    positives.grouped(16).foreach { batch =>
      batch.foreach { i =>
        val ranking = mined.ranked.find(_._1 == i).get._2
        assert(ranking.sorted == batch.filter(_ != i).sorted)
        val rel = ranking.map(j => Relevance.relPrepared(packs(i).underlyingPrepared, prepared(j)))
        ranking.indices.drop(1).foreach { k =>
          assert(rel(k) <= rel(k - 1), s"positive $i")
          if (rel(k) == rel(k - 1)) {
            ties += 1
            assert(batch.indexOf(ranking(k)) > batch.indexOf(ranking(k - 1)), s"positive $i")
          }
        }
      }
    }
    assert(ties > 0)
  }
}
