package repro.bench

import scala.util.Random

/** Synthetic series families for the benchmark repository — the Plotly
  * corpus substitute (DESIGN.md §2). Five parametric families cover the
  * chart shapes common in the Plotly corpus (walks, trends/seasonality,
  * mean-reverting noise, regime steps, spiky series), plus a pool of
  * real-ish TPC-H-lite daily aggregate series drawn on the driver by a
  * fixed-seed loop (`tpchPool`).
  */
object SeriesGen {

  /** Number of parametric families (ids 0..NFamilies-1). */
  val NFamilies = 5

  val FamilyNames: Array[String] =
    Array("walk", "trendSeason", "ar1", "steps", "spikes", "tpch")

  /** Generate one series of family `family` with `n` points at a value
    * scale/offset; deterministic in `rng`.
    */
  def gen(rng: Random, family: Int, n: Int, scale: Double, offset: Double): Array[Double] =
    family match {
      case 0 => // random walk
        val out = new Array[Double](n)
        var x = 0.0
        val step = 0.05 + 0.1 * rng.nextDouble()
        for (i <- 0 until n) { x += step * rng.nextGaussian(); out(i) = offset + scale * x }
        out
      case 1 => // trend + seasonality + noise
        val slope  = (rng.nextDouble() - 0.5) * 2.0 / n
        val period = 8 + rng.nextInt(math.max(8, n / 4))
        val amp    = 0.2 + 0.8 * rng.nextDouble()
        val phase  = rng.nextDouble() * 2 * math.Pi
        val noise  = 0.05 + 0.1 * rng.nextDouble()
        Array.tabulate(n) { i =>
          offset + scale * (slope * i + amp * math.sin(2 * math.Pi * i / period + phase) +
            noise * rng.nextGaussian())
        }
      case 2 => // AR(1), mean-reverting
        val rho = 0.7 + 0.29 * rng.nextDouble()
        val out = new Array[Double](n)
        var x = 0.0
        for (i <- 0 until n) { x = rho * x + 0.3 * rng.nextGaussian(); out(i) = offset + scale * x }
        out
      case 3 => // piecewise-constant regimes + noise
        val out = new Array[Double](n)
        var level = rng.nextGaussian()
        var next  = 0
        for (i <- 0 until n) {
          if (i == next) { level = rng.nextGaussian(); next = i + 8 + rng.nextInt(math.max(8, n / 6)) }
          out(i) = offset + scale * (level + 0.05 * rng.nextGaussian())
        }
        out
      case 4 => // baseline + occasional spikes
        Array.tabulate(n) { _ =>
          val spike = if (rng.nextDouble() < 0.04) 2.0 + 2.0 * rng.nextDouble() else 0.0
          offset + scale * (0.1 * rng.nextGaussian() + spike)
        }
      case _ => throw new IllegalArgumentException(s"unknown family $family")
    }

  /** TPC-H SF1's lineitem row count, and the days its ship dates span
    * (1992-01-01 .. 1998-12-31).
    */
  private val LineitemPerSf = 6_000_000L
  private val ShipDays      = 2557

  /** The pool the `tpch` table family samples from: `max(1, 6M·sf)`
    * TPC-H-lite lineitem rows (ship day uniform over the 2,557 days,
    * quantity U[1, 51), price U[900, 90900) rounded to cents) aggregated
    * per ship day into three series — sum(quantity), avg(price) and the row
    * count, days without a row left out — each sliced into `sliceLen`-day
    * segments, keeping those of at least `sliceLen / 2` days. One
    * fixed-seed `Random` draws every row, so the pool depends on `sf`
    * alone.
    */
  def tpchPool(sf: Double, sliceLen: Int = 512): Array[Array[Double]] = {
    val rng   = new Random(0L)
    val qty   = new Array[Double](ShipDays)
    val price = new Array[Double](ShipDays)
    val cnt   = new Array[Double](ShipDays)
    var r     = math.max(1L, (LineitemPerSf * sf).toLong)
    while (r > 0) {
      val d = rng.nextInt(ShipDays)
      qty(d) += 1.0 + 50.0 * rng.nextDouble()
      price(d) += math.round((900.0 + 90000.0 * rng.nextDouble()) * 100.0) / 100.0
      cnt(d) += 1.0
      r -= 1
    }
    val days = cnt.indices.filter(cnt(_) > 0.0).toArray
    Seq(days.map(qty), days.map(d => price(d) / cnt(d)), days.map(cnt))
      .flatMap(_.grouped(sliceLen).filter(_.length >= sliceLen / 2))
      .toArray
  }

  /** Draw a series from the TPC-H pool, resampled to `n` and rescaled. */
  def fromPool(rng: Random, pool: Array[Array[Double]], n: Int, scale: Double, offset: Double): Array[Double] = {
    val base = pool(rng.nextInt(pool.length))
    val res  = repro.core.Features.resample(base, n)
    val z    = repro.core.Features.znorm(res)
    z.map(v => offset + scale * v)
  }
}
