package repro.index

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ChartEmb, Features, LineEmb}

import scala.util.Random

class HybridIndexSpec extends AnyFunSuite {

  private val rng = new Random(41)

  private def key(tid: Long, lo: Double, hi: Double, vec: Array[Double]): ColumnKey =
    ColumnKey(tid, 0, lo, hi, (lo + hi) / 2 * 4, vec)

  private def vec(): Array[Double] = Array.fill(Features.Dim)(rng.nextGaussian())

  private def chart(yLo: Double, yHi: Double, vecs: Array[Double]*): ChartEmb =
    ChartEmb(vecs.toArray.map(v => LineEmb(Array(v), Array(0.5), v)), yLo, yHi)

  test("NoIndex returns the whole repository") {
    val keys = (0 until 20).map(i => key(i, i * 10.0, i * 10.0 + 5, vec()))
    val idx  = HybridIndex.build(keys)
    val c    = chart(0, 1000, vec())
    assert(idx.candidates(IndexStrategy.NoIndex, c) == (0 until 20).map(_.toLong).toSet)
  }

  test("interval candidates have an overlapping column; others are pruned") {
    val keys = Seq(key(1, 0, 10, vec()), key(2, 100, 200, vec()), key(3, 5, 8, vec()))
    val idx  = HybridIndex.build(keys)
    val cands = idx.candidates(IndexStrategy.IntervalOnly, chart(6, 9, vec()))
    assert(cands.contains(1L) && cands.contains(3L))
    assert(!cands.contains(2L))
  }

  test("interval index has no false negatives for exact copies (sum extension)") {
    // query chart drawn from table 5's column; chart range within [min, sum]
    val colVec = vec()
    val keys = Seq(key(5, 10, 20, colVec), key(6, 1000, 2000, vec()))
    val idx = HybridIndex.build(keys)
    val cands = idx.candidates(IndexStrategy.IntervalOnly, chart(12, 18, colVec))
    assert(cands.contains(5L))
  }

  test("LSH retrieves tables whose column embedding matches the line's") {
    val shared = vec()
    val keys = (0 until 30).map(i => key(i, 0, 1, if (i == 7) shared else vec()))
    val idx = HybridIndex.build(keys, bits = 8, flips = 1)
    val cands = idx.candidates(IndexStrategy.LshOnly, chart(0, 1, shared))
    assert(cands.contains(7L))
  }

  test("hybrid candidates are the intersection of interval and LSH sets") {
    val keys = (0 until 25).map(i => key(i, i * 2.0, i * 2.0 + 1, vec()))
    val idx  = HybridIndex.build(keys)
    val c    = chart(0, 30, vec(), vec())
    val s1 = idx.candidates(IndexStrategy.IntervalOnly, c)
    val s2 = idx.candidates(IndexStrategy.LshOnly, c)
    val hy = idx.candidates(IndexStrategy.Hybrid, c)
    assert(hy == s1.intersect(s2))
  }

  test("strategy names match the paper's Table VIII rows") {
    assert(IndexStrategy.all.map(IndexStrategy.name) ==
      Seq("No Index", "Interval Tree", "LSH", "Hybrid"))
  }

  test("building an empty index is rejected") {
    intercept[IllegalArgumentException](HybridIndex.build(Seq.empty))
  }
}
