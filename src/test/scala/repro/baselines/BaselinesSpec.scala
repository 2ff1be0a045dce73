package repro.baselines

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck.{check, column, line}
import repro.vis.{AggOp, ChartSpec, Extractor, Raster}

import scala.util.Random

class BaselinesSpec extends AnyFunSuite {

  private def walk(n: Int, seed: Int): Array[Double] = {
    val r = new Random(seed)
    var x = 0.0
    Array.fill(n) { x += r.nextGaussian(); x }
  }

  private def extract(series: Array[Array[Double]]) =
    Extractor.extract(Raster.render(series, 480, 240))

  // ---- CML ---------------------------------------------------------------

  test("CML: embedding dimensionality is shape + roughness + stats") {
    assert(Cml.seriesVec(walk(100, 1)).length == Cml.ShapeLen + Cml.RoughBins + 2)
  }

  test("CML: self similarity is ~1, noise copies close, unrelated lower") {
    val col = walk(512, 2)
    val rng = new Random(3)
    val noisy = col.map(v => v * (0.9 + 0.2 * rng.nextDouble()))
    val chart = Cml.chartVec(extract(Array(col)))
    val sSelf  = Cml.score(chart, Cml.tableVec(Array(col)))
    val sNoisy = Cml.score(chart, Cml.tableVec(Array(noisy)))
    val sOther = Cml.score(chart, Cml.tableVec(Array(walk(512, 4))))
    assert(sSelf > 0.9)
    assert(sNoisy > sOther)
  }

  test("CML: aggregation shifts the roughness profile (the DA failure mode)") {
    val col = walk(1024, 5)
    val agg = AggOp.aggregate(col, AggOp.Avg, 50)
    val chartRaw = Cml.chartVec(extract(Array(col)))
    val chartAgg = Cml.chartVec(extract(Array(agg)))
    val tv = Cml.tableVec(Array(col))
    assert(Cml.score(chartRaw, tv) > Cml.score(chartAgg, tv))
  }

  test("CML: roughness profile is higher for noisier series") {
    val smooth = Array.tabulate(256)(i => math.sin(i / 20.0))
    val rough  = walk(256, 6).map(_ * 0.1)
    val rs = Cml.roughnessProfile(repro.core.Features.znorm(smooth), 8).sum
    val rr = Cml.roughnessProfile(repro.core.Features.znorm(rough), 8).sum
    assert(rr > rs)
  }

  // ---- Qetch* ------------------------------------------------------------

  test("Qetch: slope profile has ProfileLen-1 entries") {
    assert(Qetch.slopeProfile(walk(200, 7)).length == Qetch.ProfileLen - 1)
  }

  test("Qetch: self match beats unrelated tables for locally self-similar series") {
    // Qetch matches the sketch against *local* windows only, so use a
    // series whose windows resemble the whole (periodic) — for arbitrary
    // walks the global/local mismatch is the intended information loss.
    val col = Array.tabulate(512)(i => math.sin(i / 20.0))
    val ex  = extract(Array(col))
    val sSelf  = Qetch.score(ex, Array(col))
    val sOther = Qetch.score(ex, Array(walk(512, 9)))
    assert(sSelf > sOther)
  }

  test("Qetch: magnitude-blind — rescaled tables score identically") {
    val col = walk(256, 10)
    val ex  = extract(Array(col))
    val s1 = Qetch.score(ex, Array(col))
    val s2 = Qetch.score(ex, Array(col.map(_ * 1000 + 77)))
    assert(math.abs(s1 - s2) < 1e-9)
  }

  test("Qetch: window grid finds a pattern embedded in a longer column") {
    val pattern = Array.tabulate(128)(i => math.sin(i / 6.0))
    val hay     = pattern ++ Array.fill(128)(0.0)
    val ex      = extract(Array(pattern))
    assert(Qetch.score(ex, Array(hay)) > Qetch.score(ex, Array(walk(256, 11))))
  }

  test("Qetch: multi-line charts aggregate by bipartite matching") {
    val a = walk(256, 12); val b = walk(256, 13).map(_ + 40)
    val ex = extract(Array(a, b))
    val sBoth = Qetch.score(ex, Array(a, b))
    val sOne  = Qetch.score(ex, Array(a))
    assert(sBoth > sOne) // second line finds a column only in the full table
  }

  test("Qetch: scoreProfiles is in [0, 1] on columns with non-finite cells, empty and constant columns (scalacheck)") {
    val gen = for {
      lines <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, line(300)))
      cols  <- Gen.choose(0, 4).flatMap(Gen.listOfN(_, column(300)))
    } yield (lines.toArray.map(Qetch.slopeProfile), cols.toArray.map(Qetch.columnProfiles))
    check(Prop.forAllNoShrink(gen) { case (lines, cols) =>
      val s = Qetch.scoreProfiles(lines, cols)
      s >= 0.0 && s <= 1.0
    }, 100)
  }

  // ---- DeepEye / LineNet / DE-LN ----------------------------------------

  test("DeepEye: smooth trending columns outscore white noise") {
    val trend = Array.tabulate(256)(i => i * 0.5 + math.sin(i / 10.0))
    val noise = walk(1, 14) ++ Array.fill(255)(0.0).map(_ => new Random(15).nextGaussian())
    assert(DeepEye.columnScore(trend) > DeepEye.columnScore(noise))
  }

  test("DeepEye: recommends at most 5 specs, led by the top column") {
    val cols = Array(walk(128, 16), Array.tabulate(128)(i => i * 1.0), walk(128, 17))
    val specs = DeepEye.recommend(cols)
    assert(specs.length <= 5 && specs.nonEmpty)
    assert(specs.head.yCols.length == 1)
    assert(specs.head.yCols.head == 1) // the clean linear trend wins
    specs.foreach(s => assert(s.agg.isEmpty))
  }

  test("DeepEye: single-column tables still produce a spec") {
    val specs = DeepEye.recommend(Array(walk(64, 18)))
    assert(specs.nonEmpty)
    assert(specs.forall(_.yCols.forall(_ == 0)))
  }

  test("LineNet: embeddings are L2-normalised and self-similar") {
    val img = Raster.render(Array(walk(128, 19)), 480, 240)
    val v = LineNet.embed(img)
    assert(math.abs(math.sqrt(v.map(x => x * x).sum) - 1.0) < 1e-9)
    assert(LineNet.sim(v, v) > 0.999)
  }

  test("LineNet: same shape beats different shape") {
    val s = walk(128, 20)
    val v1 = LineNet.embed(Raster.render(Array(s), 480, 240))
    val v2 = LineNet.embed(Raster.render(Array(s.map(_ * 1.05)), 480, 240))
    val v3 = LineNet.embed(Raster.render(Array(walk(128, 21)), 480, 240))
    assert(LineNet.sim(v1, v2) > LineNet.sim(v1, v3))
  }

  test("DE-LN: candidate vectors rank the source table above unrelated") {
    val cols = Array(Array.tabulate(256)(i => i + 10.0 * math.sin(i / 8.0)), walk(256, 22))
    val qImg = Raster.render(ChartSpec.underlying(cols, ChartSpec(Vector(0), None)), 480, 240)
    val qv   = LineNet.embed(qImg)
    val sSelf  = DeLn.score(qv, DeLn.candidateVecs(cols, 480, 240))
    val sOther = DeLn.score(qv, DeLn.candidateVecs(Array(walk(256, 23), walk(256, 24)), 480, 240))
    assert(sSelf > sOther)
  }

  test("Opt-LN: the associated-spec chart of the source is near-identical") {
    val cols = Array(walk(256, 25), walk(256, 26))
    val qImg = Raster.render(ChartSpec.underlying(cols, ChartSpec(Vector(0, 1), None)), 480, 240)
    val qv = LineNet.embed(qImg)
    val s  = LineNet.sim(qv, DeLn.optVec(cols, Array(0, 1), 480, 240))
    assert(s > 0.999)
  }
}
