package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck.check

class MatchingSpec extends AnyFunSuite {

  /** Exhaustive optimum: try all injective assignments (rows may skip). */
  private def brute(w: Array[Array[Double]]): Double = {
    val nR = w.length
    val nC = if (nR == 0) 0 else w(0).length
    def go(i: Int, used: Int): Double =
      if (i == nR) 0.0
      else {
        var best = go(i + 1, used) // skip row i
        for (c <- 0 until nC if (used & (1 << c)) == 0) {
          val v = w(i)(c) + go(i + 1, used | (1 << c))
          if (v > best) best = v
        }
        best
      }
    go(0, 0)
  }

  private def matrix(nR: Int, nC: Int, cell: Gen[Double]): Gen[Array[Array[Double]]] =
    Gen.listOfN(nR * nC, cell).map(vs => Array.tabulate(nR, nC)((i, j) => vs(i * nC + j)))

  private val uniform: Gen[Double] = Gen.choose(0.0, 10.0)

  /** Continuous weights: uniform, clustered like `Matcher.preScore` values,
    * or uniform with a quarter of them zero. One kind per matrix.
    */
  private val continuous: Seq[Gen[Double]] = Seq(
    uniform,
    Gen.choose(0.30, 0.45),
    Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, 1.0))
  )

  private def sized(maxR: Int, minC: Int, maxC: Int, kinds: Seq[Gen[Double]]): Gen[Array[Array[Double]]] =
    for {
      nR   <- Gen.choose(1, maxR)
      nC   <- Gen.choose(minC, maxC)
      cell <- Gen.oneOf(kinds)
      w    <- matrix(nR, nC, cell)
    } yield w

  /** The assignment is injective, reports only edges of weight > 0, and
    * the total is their sum in row order.
    */
  private def consistent(w: Array[Array[Double]], total: Double, assign: Array[Int]): Boolean = {
    val used = assign.filter(_ >= 0)
    var sum = 0.0
    assign.indices.foreach(i => if (assign(i) >= 0) sum += w(i)(assign(i)))
    assign.length == w.length && used.distinct.length == used.length &&
      assign.indices.forall(i => assign(i) < 0 || w(i)(assign(i)) > 0) &&
      java.lang.Double.compare(total, sum) == 0
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  test("known 2x2 matrix picks the cross assignment") {
    val w = Array(Array(1.0, 10.0), Array(10.0, 1.0))
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 20.0)
    assert(assign.toSeq == Seq(1, 0))
  }

  test("diagonal-dominant matrix picks the diagonal") {
    val w = Array(Array(5.0, 1.0, 1.0), Array(1.0, 5.0, 1.0), Array(1.0, 1.0, 5.0))
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 15.0)
    assert(assign.toSeq == Seq(0, 1, 2))
  }

  test("more rows than columns leaves some rows unmatched") {
    val w = Array(Array(3.0), Array(7.0), Array(5.0))
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 7.0)
    assert(assign.count(_ >= 0) == 1)
    assert(assign(1) == 0)
  }

  test("empty inputs") {
    assert(Matching.maxWeight(Array.empty[Array[Double]])._1 == 0.0)
    val (t, a) = Matching.maxWeight(Array(Array.empty[Double], Array.empty[Double]))
    assert(t == 0.0 && a.toSeq == Seq(-1, -1))
  }

  test("zero matrix has zero weight") {
    val w = Array.fill(3, 4)(0.0)
    val (total, assign) = Matching.maxWeight(w)
    assert(total == 0.0)
    assert(assign.forall(_ == -1))
  }

  test("assignment is injective") {
    val w = Array.fill(5, 5)(1.0)
    val (_, assign) = Matching.maxWeight(w)
    val used = assign.filter(_ >= 0)
    assert(used.distinct.length == used.length)
  }

  test("total matches brute force up to 7x7, with zeros and ties (scalacheck)") {
    val zeroHeavy = Gen.frequency(3 -> Gen.const(0.0), 1 -> Gen.choose(0.0, 1.0))
    val integers  = Gen.choose(0, 3).map(_.toDouble)
    check(Prop.forAllNoShrink(sized(7, 1, 7, Seq(uniform, zeroHeavy, integers))) { w =>
      val (t, assign) = Matching.maxWeight(w)
      math.abs(t - brute(w)) < 1e-9 && consistent(w, t, assign)
    }, 150)
  }

  test("assignment total equals reported total (scalacheck)") {
    check(Prop.forAllNoShrink(sized(10, 1, 24, continuous)) { w =>
      val (t, assign) = Matching.maxWeight(w)
      consistent(w, t, assign)
    }, 100)
  }

  test("assignment and total bits equal the DP up to 16 columns (scalacheck)") {
    check(Prop.forAllNoShrink(sized(10, 1, 16, continuous)) { w =>
      val (t, assign)       = Matching.maxWeight(w)
      val (tRef, assignRef) = DpMatching.maxWeight(w)
      bits(t) == bits(tRef) && assign.toSeq == assignRef.toSeq
    }, 100)
  }

  test("17 to 24 columns: the total matches brute force (scalacheck)") {
    check(Prop.forAllNoShrink(sized(3, 17, 24, continuous)) { w =>
      math.abs(Matching.maxWeight(w)._1 - brute(w)) < 1e-9
    }, 100)
  }

  test("NaN, negative and zero weights are never matched (scalacheck)") {
    val cell = Gen.frequency(
      1 -> Gen.const(Double.NaN),
      1 -> Gen.choose(-5.0, 0.0),
      1 -> Gen.const(0.0),
      3 -> Gen.choose(0.0, 1.0)
    )
    check(Prop.forAllNoShrink(sized(7, 1, 7, Seq(cell))) { w =>
      val (t, assign) = Matching.maxWeight(w)
      val positive    = w.map(_.map(x => if (x > 0) x else 0.0))
      val (tRef, assignRef) = DpMatching.maxWeight(w)
      consistent(w, t, assign) && math.abs(t - brute(positive)) < 1e-9 &&
        bits(t) == bits(tRef) && assign.toSeq == assignRef.toSeq
    }, 150)
  }
}

/** The bitmask DP `Matching.maxWeight` ran before the Hungarian solver
  * replaced it, verbatim apart from the greedy branch for more than 16
  * columns: the reference the solver must reproduce bit for bit.
  */
private[core] object DpMatching {

  def maxWeight(w: Array[Array[Double]]): (Double, Array[Int]) = {
    val nR = w.length
    if (nR == 0) return (0.0, Array.empty[Int])
    val nC = w(0).length
    if (nC == 0) return (0.0, Array.fill(nR)(-1))
    require(nC <= 16, s"the DP reference takes at most 16 columns, got $nC")
    val full = 1 << nC
    // dp(i)(mask) = best weight over rows 0..i-1 with columns `mask` used.
    val dp     = Array.fill(nR + 1, full)(Double.NegativeInfinity)
    val choice = Array.fill(nR + 1, full)(-2) // -1 = skip row, >=0 = column
    dp(0)(0) = 0.0
    var i = 0
    while (i < nR) {
      var mask = 0
      while (mask < full) {
        val cur = dp(i)(mask)
        if (cur != Double.NegativeInfinity) {
          // skip row i
          if (cur > dp(i + 1)(mask)) { dp(i + 1)(mask) = cur; choice(i + 1)(mask) = -1 }
          var c = 0
          while (c < nC) {
            if ((mask & (1 << c)) == 0) {
              val nm = mask | (1 << c)
              val v  = cur + w(i)(c)
              if (v > dp(i + 1)(nm)) { dp(i + 1)(nm) = v; choice(i + 1)(nm) = c }
            }
            c += 1
          }
        }
        mask += 1
      }
      i += 1
    }
    var bestMask = 0
    var best     = Double.NegativeInfinity
    var mask = 0
    while (mask < full) {
      if (dp(nR)(mask) > best) { best = dp(nR)(mask); bestMask = mask }
      mask += 1
    }
    val assign = Array.fill(nR)(-1)
    var r = nR
    var mcur = bestMask
    while (r > 0) {
      val ch = choice(r)(mcur)
      if (ch >= 0) { assign(r - 1) = ch; mcur &= ~(1 << ch) }
      r -= 1
    }
    (best, assign)
  }
}
