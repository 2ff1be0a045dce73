package repro.index

import scala.util.Random

/** Random-hyperplane LSH over learned column/line embeddings (paper
  * Sec. VI-A): `bits` random direction vectors are generated; each
  * embedding is mapped to a binary code whose b-th bit is the rounded
  * (0/1) sign of its similarity with the b-th direction. Datasets colliding
  * with the query line's code (within `flips` probing bits, after the
  * cited multi-probe LSH) are candidates.
  */
final class Lsh(val dim: Int, val bits: Int, seed: Long) extends Serializable {
  require(bits >= 1 && bits <= 30, s"bits must be in [1,30], got $bits")

  private val planes: Array[Array[Double]] = {
    val rng = new Random(seed)
    Array.fill(bits)(Array.fill(dim)(rng.nextGaussian()))
  }

  /** Binary code of an embedding. */
  def code(v: Array[Double]): Int = {
    var c = 0
    var b = 0
    while (b < bits) {
      var dot = 0.0
      val p = planes(b)
      val n = math.min(dim, v.length)
      var i = 0
      while (i < n) { dot += p(i) * v(i); i += 1 }
      if (dot >= 0) c |= (1 << b)
      b += 1
    }
    c
  }

  /** Multi-probe codes: `c` plus every code within `flips` bit flips,
    * nearest first.
    */
  def probes(c: Int, flips: Int): Seq[Int] = {
    require(flips >= 0, s"flips must be >= 0, got $flips")
    (0 to math.min(flips, bits)).flatMap { k =>
      (0 until bits).combinations(k).map(_.foldLeft(c)((x, b) => x ^ (1 << b)))
    }
  }
}
