package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RelevanceSpec extends AnyFunSuite {

  private val rng = new Random(11)

  private def walk(n: Int): Array[Double] = {
    var x = 0.0
    Array.fill(n) { x += rng.nextGaussian(); x }
  }

  test("prep bounds the series length") {
    assert(Relevance.prep(walk(5000)).length == Relevance.MaxDtwLen)
    assert(Relevance.prep(walk(100)).length == 100)
  }

  test("prep output is z-normalised") {
    val p = Relevance.prep(walk(1000))
    assert(math.abs(p.sum / p.length) < 0.2) // downsampling after znorm shifts slightly
  }

  test("a chart made of a table's own columns is maximally relevant") {
    val cols = Array(walk(128), walk(128), walk(128))
    val d    = Array(cols(0).clone(), cols(2).clone())
    val self = Relevance.rel(d, cols)
    assert(self == 1.0) // exact copies: DTW = 0, rel = 1 per series
  }

  test("noise copies score higher than unrelated tables") {
    val cols  = Array(walk(256), walk(256))
    val d     = Array(cols(0).clone())
    val noisy = cols.map(_.map(v => v * (0.9 + 0.2 * rng.nextDouble())))
    val other = Array(walk(256), walk(256))
    assert(Relevance.rel(d, noisy) > Relevance.rel(d, other))
  }

  test("scale-invariance: rescaled tables are as relevant as the original") {
    val cols = Array(walk(128))
    val d    = Array(cols(0).clone())
    val scaled = cols.map(_.map(v => v * 1000.0 + 5.0))
    assert(math.abs(Relevance.rel(d, cols) - Relevance.rel(d, scaled)) < 1e-9)
  }

  test("aggregated underlying data still prefers its source's noise copy") {
    val col = walk(512)
    val d   = Array(repro.vis.AggOp.aggregate(col, repro.vis.AggOp.Avg, 16))
    val src   = Array(col)
    val other = Array(walk(512))
    assert(Relevance.rel(d, src) > Relevance.rel(d, other))
  }

  test("Rel ignores non-finite cells: bit-identical to the table without them") {
    val clean = Array(walk(300), walk(200))
    val dirty = Array(
      clean(0).patch(7, Seq(Double.NaN), 0).patch(150, Seq(Double.PositiveInfinity), 0) :+ Double.NegativeInfinity,
      Double.NaN +: clean(1).patch(60, Seq(Double.NegativeInfinity, Double.NaN), 0)
    )
    val d = Array(clean(0).clone(), walk(250))
    val r = Relevance.rel(d, dirty)
    assert(java.lang.Double.doubleToRawLongBits(r) == java.lang.Double.doubleToRawLongBits(Relevance.rel(d, clean)))
    assert(java.lang.Double.isFinite(r))
    // a column without a finite cell is an empty column
    val none = Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    assert(Relevance.rel(d, Array(none)) == 0.0)
  }

  test("empty inputs give zero relevance") {
    assert(Relevance.rel(Array.empty, Array(walk(10))) == 0.0)
    assert(Relevance.rel(Array(walk(10)), Array.empty) == 0.0)
  }

  test("bipartite lifting picks distinct columns per series") {
    val a = walk(64); val b = walk(64)
    val cols = Array(a, b)
    val d    = Array(a.clone(), b.clone())
    // both series can't both match column a; optimal total is 2 (rel=1 each)
    assert(Relevance.rel(d, cols) == 1.0)
  }

  test("relevance is normalised by the number of series") {
    val a = walk(64)
    val d1 = Array(a.clone())
    val d2 = Array(a.clone(), walk(64))
    val cols = Array(a)
    // second series finds no free column; score halves (plus epsilon)
    assert(Relevance.rel(d1, cols) == 1.0)
    assert(Relevance.rel(d2, cols) <= 0.51)
  }
}
