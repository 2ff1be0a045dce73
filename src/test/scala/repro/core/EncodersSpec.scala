package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck.check
import repro.vis.{AggOp, ExtractedChart, Extractor, Raster}

import scala.util.Random

class EncodersSpec extends AnyFunSuite {

  private val rng = new Random(21)
  private def walk(n: Int): Array[Double] = {
    var x = 0.0
    Array.fill(n) { x += rng.nextGaussian(); x }
  }

  test("FcmConfig rejects a segment size below 1, also through copy") {
    intercept[IllegalArgumentException](FcmConfig(p1 = 0))
    intercept[IllegalArgumentException](FcmConfig(p2 = 0))
    intercept[IllegalArgumentException](FcmConfig(p1 = -60))
    intercept[IllegalArgumentException](FcmConfig(p2 = -1))
    intercept[IllegalArgumentException](FcmConfig().copy(p2 = 0))
    assert(FcmConfig(p1 = 1, p2 = 1).p2 == 1)
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

  test("a table's block reads back the experts it was built from, and encodeColumn equals encodeTable's column (scalacheck)") {
    // empty, short (no DA view) and longer random walks, one cell in 40 NaN
    val gen = for {
      seed <- Gen.choose(0, 100000)
      rows <- Gen.choose(1, 5).flatMap(Gen.listOfN(_, Gen.oneOf(Gen.const(0), Gen.choose(1, 15), Gen.choose(16, 600))))
    } yield {
      val r = new Random(seed)
      rows.toArray.map { n => var x = 0.0; Array.fill(n) { x += r.nextGaussian(); if (r.nextInt(40) == 0) Double.NaN else x } }
    }
    def raw(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    def same(a: DaVariant, b: DaVariant): Boolean =
      a.op == b.op && a.window == b.window && a.segs.toSeq.map(raw) == b.segs.toSeq.map(raw) && raw(a.pos) == raw(b.pos)
    def sameViews(a: Array[DaVariant], b: Array[DaVariant]): Boolean =
      a.length == b.length && a.indices.forall(k => same(a(k), b(k)))
    Seq(FcmConfig(), FcmConfig(useDa = false)).foreach { cfg =>
      check(Prop.forAllNoShrink(gen) { cols =>
        val experts = cols.zipWithIndex.map { case (c, i) => DatasetEncoder.experts(i, c, cfg) }
        val tab     = TableEmb(5L, experts)
        val b       = tab.block
        val enc     = DatasetEncoder.encodeTable(5L, cols, cfg)
        cols.indices.forall { i =>
          val (col, x, t) = (tab.cols(i), experts(i), enc.cols(i))
          val one = DatasetEncoder.encodeColumn(i, cols(i), cfg)
          val pooled = (i +: Array.range(b.views(i), b.views(i + 1))).map(b.pooled)
          col.colIdx == x.colIdx && col.nRows == x.nRows && raw(Array(col.min, col.max, col.sum)) == raw(Array(x.min, x.max, x.sum)) &&
            same(DaVariant(0, 0, col.segs, col.pos), x.experts(0)) && sameViews(col.variants, x.experts.tail) &&
            pooled.toSeq.map(raw) == x.experts.toSeq.map(v => raw(Features.pool(v.segs))) &&
            one.colIdx == t.colIdx && one.nRows == t.nRows &&
            raw(Array(one.min, one.max, one.sum)) == raw(Array(t.min, t.max, t.sum)) && raw(one.pooled) == raw(t.pooled) &&
            same(DaVariant(0, 0, one.segs, one.pos), DaVariant(0, 0, t.segs, t.pos)) && sameViews(one.variants, t.variants)
        }
      }, 60)
    }
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

  test("chart encoder keeps the tick-derived y-range for the index") {
    val s = Array.tabulate(64)(i => 100.0 + i)
    val img = Raster.render(Array(s), 240, 120)
    val emb = ChartEncoder.encode(Extractor.extract(img), FcmConfig())
    assert(emb.yLo < 110.0 && emb.yHi > 150.0)
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
