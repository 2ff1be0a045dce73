package repro

import org.scalacheck.{Prop, Test}
import org.scalacheck.rng.Seed
import org.scalatest.Assertions

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
}
