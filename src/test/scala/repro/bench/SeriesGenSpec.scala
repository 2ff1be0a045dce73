package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class SeriesGenSpec extends AnyFunSuite {

  test("parametric families are deterministic in the rng seed") {
    for (f <- 0 until SeriesGen.NFamilies) {
      val a = SeriesGen.gen(new Random(9), f, 64, 10.0, 5.0)
      val b = SeriesGen.gen(new Random(9), f, 64, 10.0, 5.0)
      assert(a.toSeq == b.toSeq, s"family $f")
    }
  }

  test("families produce the requested length") {
    for (f <- 0 until SeriesGen.NFamilies) {
      assert(SeriesGen.gen(new Random(1), f, 100, 1.0, 0.0).length == 100)
    }
  }

  test("scale and offset move the series as expected") {
    val small = SeriesGen.gen(new Random(3), 0, 128, 1.0, 0.0)
    val big   = SeriesGen.gen(new Random(3), 0, 128, 1000.0, 0.0)
    assert((big.max - big.min) > 100 * (small.max - small.min))
    val shifted = SeriesGen.gen(new Random(3), 2, 128, 1.0, 500.0)
    assert(shifted.sum / shifted.length > 400)
  }

  test("steps family is piecewise flat (few distinct levels)") {
    val s = SeriesGen.gen(new Random(4), 3, 200, 1.0, 0.0)
    // regime noise is small relative to level jumps
    val diffs = s.sliding(2).map(p => math.abs(p(1) - p(0))).toArray
    val bigJumps = diffs.count(_ > 0.5)
    assert(bigJumps < 40)
  }

  test("unknown family is rejected") {
    intercept[IllegalArgumentException](SeriesGen.gen(new Random(1), 99, 10, 1.0, 0.0))
  }

  test("TPC-H daily aggregates are per-day sums, means and counts") {
    // one slice per series: the daily quantity sums, price means and counts
    val Array(qty, price, cnt) = SeriesGen.tpchPool(sf = 0.001, sliceLen = 2557)
    assert(cnt.length > 2000 && qty.length == cnt.length && price.length == cnt.length)
    assert(cnt.sum == 6000.0)
    cnt.indices.foreach { d =>
      assert(cnt(d) >= 1.0 && cnt(d) == math.rint(cnt(d)))
      assert(qty(d) >= cnt(d) && qty(d) < 51.0 * cnt(d))
      assert(price(d) >= 900.0 && price(d) <= 90900.0)
    }
  }

  test("tpchPool yields usable slices") {
    val pool = SeriesGen.tpchPool(sf = 0.001, sliceLen = 256)
    assert(pool.nonEmpty)
    pool.foreach(s => assert(s.length >= 128))
  }

  test("fromPool resamples and rescales deterministically") {
    val pool = Array(Array.tabulate(100)(i => math.sin(i / 5.0)))
    val a = SeriesGen.fromPool(new Random(5), pool, 64, 10.0, 3.0)
    val b = SeriesGen.fromPool(new Random(5), pool, 64, 10.0, 3.0)
    assert(a.toSeq == b.toSeq)
    assert(a.length == 64)
  }
}
