package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.vis.{AggOp, ExtractedChart, Extractor, Raster}

import scala.util.Random

class EncodersSpec extends AnyFunSuite {

  private val rng = new Random(21)
  private def walk(n: Int): Array[Double] = {
    var x = 0.0
    Array.fill(n) { x += rng.nextGaussian(); x }
  }

  test("encodeColumn computes exact raw stats") {
    val xs = Array(3.0, -1.0, 4.0, 1.0, 5.0)
    val nonFinite = Array(Double.NaN, 3.0, -1.0, Double.PositiveInfinity, 4.0, 1.0, Double.NegativeInfinity, 5.0)
    Seq(xs, nonFinite).foreach { col =>
      val emb = DatasetEncoder.encodeColumn(0, col, FcmConfig(p2 = 2, useDa = false))
      assert(emb.min == -1.0 && emb.max == 5.0)
      assert(math.abs(emb.sum - 12.0) < 1e-9)
      assert(emb.nRows == 5)
    }
    // only the finite cells are encoded: none left is an empty column
    val none = DatasetEncoder.encodeColumn(0, Array(Double.NaN, Double.PositiveInfinity), FcmConfig())
    assert(none.nRows == 0 && none.segs.isEmpty && none.variants.isEmpty)
  }

  test("a column scaled by a power of two, up to the last finite scale, encodes to the same segments and views") {
    def bits(segs: Array[Array[Double]]): Seq[Seq[Long]] =
      segs.toSeq.map(_.toSeq.map(java.lang.Double.doubleToRawLongBits))
    val xs   = walk(512)
    val kMax = 1023 - math.getExponent(xs.map(math.abs).max)
    Seq(FcmConfig(), FcmConfig(useDa = false)).foreach { c =>
      val ref = DatasetEncoder.encodeColumn(0, xs, c)
      Seq(990, 1000, kMax).foreach { k =>
        val emb = DatasetEncoder.encodeColumn(0, xs.map(math.scalb(_, k)), c)
        assert(bits(emb.segs) == bits(ref.segs), k)
        assert(emb.pos.toSeq == ref.pos.toSeq, k)
        assert(emb.variants.map(v => (v.op, v.window)).toSeq == ref.variants.map(v => (v.op, v.window)).toSeq, k)
        emb.variants.zip(ref.variants).foreach { case (v, r) => assert(bits(v.segs) == bits(r.segs), k) }
        // the raw statistics stay unscaled
        assert(emb.max == math.scalb(ref.max, k) && emb.min == math.scalb(ref.min, k), k)
      }
    }
  }

  test("base segmentation respects p2") {
    val emb = DatasetEncoder.encodeColumn(0, walk(256), FcmConfig(p2 = 64, useDa = false))
    assert(emb.segs.length == 4)
    assert(emb.pos.length == 4)
  }

  test("useDa=false produces no variants") {
    val emb = DatasetEncoder.encodeColumn(0, walk(256), FcmConfig(useDa = false))
    assert(emb.variants.isEmpty)
  }

  // sum is avg scaled by a power of two, so its view repeats avg's and is not materialised
  test("DA variants cover avg, max and min x HMRL windows") {
    val cfg = FcmConfig(p2 = 64)
    val col = walk(1024)
    val emb = DatasetEncoder.encodeColumn(0, col, cfg)
    val windows = cfg.daWindows(1024)
    assert(windows.toSeq == Seq(4, 8, 16, 32, 64))
    assert(emb.variants.length == 3 * windows.length)
    assert(emb.variants.map(_.op).distinct.sorted.toSeq == Seq(1, 3, 4))
    emb.variants.foreach(v => assert(v.segs.nonEmpty))
    windows.foreach { w =>
      val avg = Features.znorm(AggOp.aggregate(col, AggOp.Avg, w))
      val sum = Features.znorm(AggOp.aggregate(col, AggOp.Sum, w))
      assert(java.util.Arrays.equals(avg, sum), s"window $w")
    }
  }

  test("HMRL windows never exceed p2 (the Table IV cliff)") {
    val cfg = FcmConfig(p2 = 16)
    assert(cfg.daWindows(1024).max == 16)
  }

  test("HMRL windows never exceed a quarter of the column") {
    val cfg = FcmConfig(p2 = 64)
    assert(cfg.daWindows(64).max == 16)
    assert(cfg.daWindows(8).isEmpty)
  }

  test("variant segment features are z-space (bounded magnitudes)") {
    val emb = DatasetEncoder.encodeColumn(0, walk(512).map(_ * 1e6), FcmConfig())
    (emb.segs ++ emb.variants.flatMap(_.segs)).foreach { f =>
      assert(f.forall(v => math.abs(v) < 50.0))
    }
  }

  test("encodeTable encodes every column with its index") {
    val t = DatasetEncoder.encodeTable(7L, Array(walk(128), walk(128), walk(128)), FcmConfig())
    assert(t.tableId == 7L)
    assert(t.cols.map(_.colIdx).toSeq == Seq(0, 1, 2))
  }

  test("chart encoder segments each extracted line by p1") {
    val s   = walk(256)
    val img = Raster.render(Array(s), 480, 240)
    val ex  = Extractor.extract(img)
    val emb = ChartEncoder.encode(ex, FcmConfig(p1 = 60))
    assert(emb.m == 1)
    assert(emb.lines(0).segs.length == 8)
    assert(emb.lines(0).pooled.length == Features.Dim)
    assert(emb.yLo < emb.yHi)
  }

  test("chart encoder preserves raw line range for the index") {
    val s = Array.tabulate(64)(i => 100.0 + i)
    val img = Raster.render(Array(s), 240, 120)
    val emb = ChartEncoder.encode(Extractor.extract(img), FcmConfig())
    assert(emb.lines(0).rawMin < 110.0 && emb.lines(0).rawMax > 150.0)
  }

  test("encoding is deterministic") {
    val ex  = ExtractedChart(Array(walk(100)), 0.0, 1.0)
    val a = ChartEncoder.encode(ex, FcmConfig())
    val b = ChartEncoder.encode(ex, FcmConfig())
    assert(a.lines(0).segs.flatten.toSeq == b.lines(0).segs.flatten.toSeq)
  }

  test("featureDim follows the variant") {
    assert(FcmConfig().featureDim == 6)
    assert(FcmConfig(useHcman = false).featureDim == 3)
  }

  test("headWeights fall back to defaults and accept trained weights") {
    val cfg = FcmConfig()
    assert(cfg.headWeights.length == cfg.featureDim + 1)
    val trained = Array.fill(7)(0.5)
    assert(cfg.withWeights(trained).headWeights eq trained)
  }
}
