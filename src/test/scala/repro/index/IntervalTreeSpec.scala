package repro.index

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck.check

class IntervalTreeSpec extends AnyFunSuite {

  private def brute(iv: Seq[Interval], lo: Double, hi: Double): Set[Long] =
    iv.filter(_.overlaps(lo, hi)).map(_.id).toSet

  test("single interval hit and miss") {
    val t = IntervalTree.build(Seq(Interval(1.0, 5.0, 42L)))
    assert(t.query(0.0, 2.0) == Set(42L))
    assert(t.query(5.0, 9.0) == Set(42L)) // closed endpoints
    assert(t.query(6.0, 9.0) == Set.empty)
    assert(t.query(-3.0, 0.5) == Set.empty)
  }

  test("point intervals and point queries") {
    val t = IntervalTree.build(Seq(Interval(2.0, 2.0, 1L), Interval(3.0, 3.0, 2L)))
    assert(t.query(2.0, 2.0) == Set(1L))
    assert(t.query(2.5, 2.5) == Set.empty)
    assert(t.query(1.0, 4.0) == Set(1L, 2L))
  }

  test("duplicate ids collapse in the result set") {
    val t = IntervalTree.build(Seq(Interval(0, 1, 7L), Interval(2, 3, 7L)))
    assert(t.query(-1, 10) == Set(7L))
  }

  test("nested and overlapping intervals") {
    val iv = Seq(Interval(0, 100, 1L), Interval(10, 20, 2L), Interval(15, 60, 3L))
    val t = IntervalTree.build(iv)
    assert(t.query(16, 17) == Set(1L, 2L, 3L))
    assert(t.query(70, 80) == Set(1L))
  }

  test("matches brute force on random interval sets (scalacheck)") {
    val intervalGen = for {
      a  <- Gen.choose(-100.0, 100.0)
      len <- Gen.choose(0.0, 50.0)
      id <- Gen.choose(0L, 30L)
    } yield Interval(a, a + len, id)
    val caseGen = for {
      ivs <- Gen.nonEmptyListOf(intervalGen)
      qa  <- Gen.choose(-120.0, 120.0)
      ql  <- Gen.choose(0.0, 60.0)
    } yield (ivs, qa, qa + ql)
    check(Prop.forAll(caseGen) { case (ivs, lo, hi) =>
      IntervalTree.build(ivs).query(lo, hi) == brute(ivs, lo, hi)
    }, 80)
  }

  test("large balanced build answers quickly and correctly") {
    val rng = new scala.util.Random(5)
    val ivs = (0 until 2000).map { i =>
      val a = rng.nextDouble() * 1000
      Interval(a, a + rng.nextDouble() * 100, i.toLong)
    }
    val t = IntervalTree.build(ivs)
    for (_ <- 1 to 50) {
      val lo = rng.nextDouble() * 1000
      val hi = lo + rng.nextDouble() * 50
      assert(t.query(lo, hi) == brute(ivs, lo, hi))
    }
  }

  test("query covering everything returns every id") {
    val ivs = (0 until 50).map(i => Interval(i, i + 1, i.toLong))
    assert(IntervalTree.build(ivs).query(-10, 100) == ivs.map(_.id).toSet)
  }
}
