package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck.check

import scala.util.Random

class FeaturesSpec extends AnyFunSuite {

  test("znorm yields zero mean and unit variance") {
    val rng = new Random(1)
    val xs  = Array.fill(100)(rng.nextDouble() * 50 + 7)
    val z   = Features.znorm(xs)
    val mean = z.sum / z.length
    val sd   = math.sqrt(z.map(v => (v - mean) * (v - mean)).sum / z.length)
    assert(math.abs(mean) < 1e-9)
    assert(math.abs(sd - 1.0) < 1e-9)
  }

  test("znorm maps constant series to zeros") {
    Seq(42.0, 0.3, -0.7, 1e-15, 3e-310).foreach { v =>
      assert(Features.znorm(Array.fill(10)(v)).forall(_ == 0.0), v)
    }
  }

  test("znorm is scale and offset invariant") {
    val xs = Array(1.0, 5.0, 3.0, 8.0, 2.0)
    val a  = Features.znorm(xs)
    val b  = Features.znorm(xs.map(v => v * 13.0 - 100.0))
    a.zip(b).foreach { case (x, y) => assert(math.abs(x - y) < 1e-9) }
  }

  test("znorm is bit-identical under power-of-two scaling, up to the last scale that keeps every cell finite") {
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val gen = for {
      n  <- Gen.choose(2, 600)
      xs <- Gen.listOfN(n, Gen.choose(-1000000, 1000000)).suchThat(_.distinct.length > 1)
    } yield xs.map(_ / 1024.0).toArray
    check(Prop.forAllNoShrink(gen) { xs =>
      val ref  = bits(Features.znorm(xs))
      val kMax = 1023 - math.getExponent(xs.map(math.abs).max)
      (0 to kMax).forall { k =>
        val scaled = xs.map(x => math.scalb(x, k))
        bits(Features.znorm(scaled)) == ref
      }
    }, minSuccessful = 60)
  }

  test("znorm keeps the shape of large finite series, where the plain mean or variance overflows") {
    val rng = new Random(7)
    var x   = 0.0
    val xs  = Array.fill(512) { x += rng.nextGaussian(); x }
    val ref = Features.znorm(xs)
    Seq(1e300, 1e305, -1e305).foreach { c =>
      val z = Features.znorm(xs.map(_ * c))
      assert(z.forall(java.lang.Double.isFinite), c)
      z.zip(ref).foreach { case (a, b) => assert(math.abs(a - math.signum(c) * b) < 1e-9, c) }
    }
    assert(Features.overflowScale(xs) == 1.0)
    val big = xs.map(_ * 1e305)
    assert(math.abs(big.map(math.abs).max * Features.overflowScale(big)) >= 1.0)
    assert(math.abs(big.map(math.abs).max * Features.overflowScale(big)) < 2.0)
  }

  test("znorm is bit-identical under power-of-two downscaling, down to the last scale that keeps every cell normal") {
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val gen = for {
      n  <- Gen.choose(2, 600)
      xs <- Gen.listOfN(n, Gen.choose(-1000000, 1000000)).suchThat(_.distinct.length > 1)
    } yield xs.map(_ / 1024.0).toArray
    check(Prop.forAllNoShrink(gen) { xs =>
      val ref  = bits(Features.znorm(xs))
      val kMax = math.getExponent(xs.filter(_ != 0.0).map(math.abs).min) - java.lang.Double.MIN_EXPONENT
      (0 to kMax).forall { k =>
        val scaled = xs.map(x => math.scalb(x, -k))
        bits(Features.znorm(scaled)) == ref
      }
    }, minSuccessful = 60)
  }

  test("znorm keeps the shape of tiny-magnitude series") {
    val rng = new Random(9)
    var x   = 0.0
    val xs  = Array.fill(512) { x += rng.nextGaussian(); x }
    val ref = Features.znorm(xs)
    Seq(1e-15, -1e-15, 1e-200, 1e-300).foreach { c =>
      val z = Features.znorm(xs.map(_ * c))
      z.zip(ref).foreach { case (a, b) => assert(math.abs(a - math.signum(c) * b) < 1e-9, c) }
    }
  }

  test("simRow equals sim bit for bit, element by element (scalacheck)") {
    def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val vec = Gen.oneOf(
      Gen.listOfN(Features.Dim, Gen.choose(-3.0, 3.0)),
      Gen.listOfN(Features.Dim, Gen.oneOf(0.0, -0.0, 1e-300, 1.0, 1e150, -2.5))
    ).map(_.toArray)
    val gen = for {
      a   <- vec
      nb  <- Gen.choose(0, 13)
      bs  <- Gen.listOfN(nb, Gen.oneOf(vec, Gen.const(a.clone)))
      off <- Gen.choose(0, 3)
    } yield (a, bs.toArray, off)
    check(Prop.forAll(gen) { case (a, bs, off) =>
      val out = Array.fill(off + bs.length + 2)(-1.0)
      Features.simRow(a, bs, out, off)
      bits(out) == bits(Array.fill(off)(-1.0) ++ bs.map(Features.sim(a, _)) ++ Array(-1.0, -1.0))
    }, 200)
  }

  test("segFeatures computes the six statistics") {
    val xs = Array(1.0, 3.0, 2.0, 4.0)
    val f  = Features.segFeatures(xs, 0, 4)
    assert(f.length == Features.Dim)
    assert(math.abs(f(0) - 2.5) < 1e-9)                    // mean
    assert(f(2) == 1.0 && f(3) == 4.0)                     // min, max
    assert(math.abs(f(4) - 3.0) < 1e-9)                    // net change
    assert(math.abs(f(5) - (2.0 + 1.0 + 2.0) / 3) < 1e-9)  // mean |step|
  }

  test("segFeatures respects sub-ranges") {
    val xs = Array(0.0, 10.0, 20.0, 30.0)
    val f  = Features.segFeatures(xs, 1, 3)
    assert(f(2) == 10.0 && f(3) == 20.0)
  }

  test("segmentAll produces the expected segment count and positions") {
    val xs = Array.tabulate(128)(_.toDouble)
    val (segs, pos) = Features.segmentAll(xs, 32)
    assert(segs.length == 4)
    assert(pos.length == 4)
    assert(pos.zip(pos.tail).forall { case (a, b) => a < b })
    assert(pos.forall(p => p > 0 && p < 1))
  }

  test("segmentAll keeps a half-or-larger trailing partial") {
    val (segs, _) = Features.segmentAll(Array.tabulate(48)(_.toDouble), 32)
    assert(segs.length == 2) // 32 + 16 (= half)
  }

  test("segmentAll drops a tiny tail but keeps a lone short segment") {
    val (a, _) = Features.segmentAll(Array.tabulate(33)(_.toDouble), 32)
    assert(a.length == 1) // 1-point tail dropped
    val (b, _) = Features.segmentAll(Array.tabulate(5)(_.toDouble), 32)
    assert(b.length == 1) // whole series shorter than a segment
  }

  test("segmentAll of empty input is empty") {
    val (segs, pos) = Features.segmentAll(Array.empty[Double], 16)
    assert(segs.isEmpty && pos.isEmpty)
  }

  test("pool averages features elementwise") {
    val p = Features.pool(Array(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(p.toSeq == Seq(2.0, 3.0))
  }

  test("pool of no segments is a zero vector") {
    assert(Features.pool(Array.empty[Array[Double]]).toSeq == Seq.fill(Features.Dim)(0.0))
  }

  test("sim is 1 for identical features and decreases with distance") {
    val a = Array(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    assert(math.abs(Features.sim(a, a) - 1.0) < 1e-12)
    val near = a.map(_ + 0.05)
    val far  = a.map(_ + 2.0)
    assert(Features.sim(a, near) > Features.sim(a, far))
    assert(Features.sim(a, far) > 0.0)
  }

  test("cosine basics") {
    val a = Array(1.0, 0.0)
    val b = Array(0.0, 1.0)
    assert(Features.cosine(a, a) == 1.0)
    assert(Features.cosine(a, b) == 0.0)
    assert(Features.cosine(a, a.map(-_)) == -1.0)
    assert(Features.cosine(a, Array(0.0, 0.0)) == 0.0)
  }

  test("resample hits endpoints and length") {
    val xs = Array(0.0, 1.0, 2.0, 3.0)
    val r  = Features.resample(xs, 7)
    assert(r.length == 7)
    assert(r.head == 0.0 && math.abs(r.last - 3.0) < 1e-9)
  }

  test("resample interpolates linearly") {
    val r = Features.resample(Array(0.0, 2.0), 3)
    assert(math.abs(r(1) - 1.0) < 1e-9)
  }

  test("resample of singleton repeats the value") {
    assert(Features.resample(Array(5.0), 4).forall(_ == 5.0))
  }
}
