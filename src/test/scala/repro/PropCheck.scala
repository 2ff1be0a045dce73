package repro

import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.Assertions

import scala.util.Random

/** Runs a ScalaCheck property under ScalaTest (scalatestplus is not on the
  * offline classpath, so ScalaCheck's runner is driven directly). The initial
  * seed is fixed, so a failing run reproduces; the failure message names it.
  */
object PropCheck extends Assertions {

  private val InitialSeed: Seed = Seed(20251017L)

  def check(p: Prop, minSuccessful: Int): Unit = {
    val params = Test.Parameters.default
      .withMinSuccessfulTests(minSuccessful)
      .withInitialSeed(InitialSeed)
    val res = Test.check(params, p)
    assert(res.passed, s"${res.status} (initial seed ${InitialSeed.toBase64})")
  }

  /** A repository column at its worst: a random walk of 0, 1 or up to
    * `maxRows` cells, one cell in 20 NaN, +Inf or −Inf; one column in eight
    * has no finite cell and one in eight is constant.
    */
  def column(maxRows: Int): Gen[Array[Double]] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    n    <- Gen.frequency(1 -> Gen.const(0), 1 -> Gen.const(1), 6 -> Gen.choose(2, maxRows))
    kind <- Gen.choose(0, 7)
  } yield {
    val r   = new Random(seed)
    val bad = Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)
    var x   = 0.0
    kind match {
      case 0 => Array.fill(n)(bad(r.nextInt(3)))
      case 1 => Array.fill(n)(3.5)
      case _ => Array.fill(n) { x += r.nextGaussian(); if (r.nextInt(20) == 0) bad(r.nextInt(3)) else x }
    }
  }

  /** A finite random walk of 2 to `maxLen` points: one extracted chart line. */
  def line(maxLen: Int): Gen[Array[Double]] = for {
    seed <- Gen.choose(0L, Long.MaxValue)
    n    <- Gen.choose(2, maxLen)
  } yield {
    val r = new Random(seed)
    var x = 0.0
    Array.fill(n) { x += r.nextGaussian(); x }
  }
}
