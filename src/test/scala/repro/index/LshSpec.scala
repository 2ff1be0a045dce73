package repro.index

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class LshSpec extends AnyFunSuite {

  private val dim = 6

  test("codes are deterministic and identical for identical vectors") {
    val lsh = new Lsh(dim, 10, seed = 1)
    val rng = new Random(2)
    val v   = Array.fill(dim)(rng.nextGaussian())
    assert(lsh.code(v) == lsh.code(v.clone()))
  }

  test("codes fit in the configured bit width") {
    val lsh = new Lsh(dim, 8, seed = 3)
    val rng = new Random(4)
    for (_ <- 1 to 100) {
      val c = lsh.code(Array.fill(dim)(rng.nextGaussian()))
      assert(c >= 0 && c < (1 << 8))
    }
  }

  test("antipodal vectors get complementary codes") {
    val lsh = new Lsh(dim, 12, seed = 5)
    val rng = new Random(6)
    val v = Array.fill(dim)(rng.nextGaussian())
    val c1 = lsh.code(v)
    val c2 = lsh.code(v.map(-_))
    assert((c1 ^ c2) == (1 << 12) - 1)
  }

  test("scaling does not change the code") {
    val lsh = new Lsh(dim, 10, seed = 7)
    val rng = new Random(8)
    val v = Array.fill(dim)(rng.nextGaussian())
    assert(lsh.code(v) == lsh.code(v.map(_ * 12.5)))
  }

  test("near-duplicates collide more often than random pairs (statistical)") {
    val lsh = new Lsh(dim, 10, seed = 9)
    val rng = new Random(10)
    def hamming(a: Int, b: Int): Int = Integer.bitCount(a ^ b)
    var near = 0; var far = 0
    for (_ <- 1 to 200) {
      val v = Array.fill(dim)(rng.nextGaussian())
      val noisy = v.map(x => x + 0.05 * rng.nextGaussian())
      val other = Array.fill(dim)(rng.nextGaussian())
      near += hamming(lsh.code(v), lsh.code(noisy))
      far  += hamming(lsh.code(v), lsh.code(other))
    }
    assert(near < far)
  }

  test("probes with flips=0 is just the code") {
    val lsh = new Lsh(dim, 10, seed = 11)
    assert(lsh.probes(37, 0) == Seq(37))
  }

  test("probes with flips=1 enumerate all single-bit flips") {
    val lsh = new Lsh(dim, 6, seed = 12)
    val ps  = lsh.probes(0, 1)
    assert(ps.length == 7)
    assert(ps.head == 0)
    assert(ps.tail.toSet == (0 until 6).map(1 << _).toSet)
  }

  test("probes with flips=2 include all two-bit flips") {
    val lsh = new Lsh(dim, 4, seed = 13)
    val ps  = lsh.probes(0, 2)
    assert(ps.length == 1 + 4 + 6)
    assert(ps.distinct.length == ps.length)
  }

  test("probes are the codes within flips bit flips; negative flips are rejected") {
    for (bits <- 1 to 8; f <- 0 to 3) {
      val lsh = new Lsh(dim, bits, seed = 11)
      val c   = new Random(bits * 10 + f).nextInt(1 << bits)
      val ps  = lsh.probes(c, f)
      assert(ps.head == c)
      assert(ps.distinct.length == ps.length)
      assert(ps.toSet == (0 until (1 << bits)).filter(x => Integer.bitCount(x ^ c) <= f).toSet, (bits, f))
    }
    intercept[IllegalArgumentException](new Lsh(dim, 4, seed = 12).probes(0, -1))
  }

  test("bit width is validated") {
    intercept[IllegalArgumentException](new Lsh(dim, 0, 1))
    intercept[IllegalArgumentException](new Lsh(dim, 31, 1))
  }
}
