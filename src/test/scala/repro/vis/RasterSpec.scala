package repro.vis

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class RasterSpec extends AnyFunSuite {

  test("image has the requested dimensions") {
    val img = Raster.render(Array(Array(1.0, 2.0, 3.0)), 100, 50)
    assert(img.width == 100 && img.height == 50)
    assert(img.pixels.length == 100 * 50)
  }

  test("a constant series renders as a single horizontal row") {
    val img = Raster.render(Array(Array.fill(50)(5.0)), 100, 60)
    val litRows = (0 until 60).filter(r => (0 until 100).exists(c => img(r, c) > 0f))
    assert(litRows.length == 1)
  }

  test("line intensities are distinct per line") {
    val m = 7
    val ints = (0 until m).map(Raster.lineIntensity(_, m))
    assert(ints.distinct.length == m)
    assert(ints.forall(i => i > 0f && i <= 1f))
  }

  test("number of distinct intensities in a multi-line chart equals M") {
    val series = Array.tabulate(4)(i => Array.tabulate(64)(k => math.sin(k / 7.0 + i) + 3 * i))
    val img = Raster.render(series, 200, 100)
    val distinct = img.pixels.filter(_ > 0f).distinct
    assert(distinct.length == 4)
  }

  test("ticks: count, monotone rows, decreasing values down the image") {
    val img = Raster.render(Array(Array(0.0, 10.0)), 100, 80)
    assert(img.ticks.length == Raster.NTicks)
    val rows = img.ticks.map(_.row)
    assert(rows.toSeq == rows.sorted.toSeq)
    assert(img.ticks.head.value > img.ticks.last.value)
    assert(img.ticks.head.row == 0 && img.ticks.last.row == 79)
  }

  test("tick range covers data with a 5% margin") {
    val img = Raster.render(Array(Array(0.0, 100.0)), 100, 80)
    assert(img.ticks.head.value > 100.0 && img.ticks.head.value < 110.0)
    assert(img.ticks.last.value < 0.0 && img.ticks.last.value > -10.0)
  }

  test("an increasing series occupies decreasing pixel rows") {
    val img = Raster.render(Array(Array.tabulate(32)(_.toDouble)), 64, 64)
    def rowOfCol(c: Int): Double = {
      val rows = (0 until 64).filter(r => img(r, c) > 0f)
      rows.sum.toDouble / rows.length
    }
    assert(rowOfCol(0) > rowOfCol(63))
  }

  test("later lines over-paint earlier ones (occlusion)") {
    val s = Array.tabulate(32)(i => math.sin(i / 3.0))
    val img = Raster.render(Array(s, s), 64, 64) // identical series
    val distinct = img.pixels.filter(_ > 0f).distinct
    assert(distinct.length == 1) // only the top line's intensity survives
    assert(distinct(0) == Raster.lineIntensity(1, 2))
  }

  test("lines are connected: every pixel column of a single line is lit") {
    val rng = new Random(2)
    val s = Array.fill(40)(rng.nextGaussian())
    val img = Raster.render(Array(s), 120, 60)
    (0 until 120).foreach { c =>
      assert((0 until 60).exists(r => img(r, c) > 0f), s"column $c unlit")
    }
  }

  test("degenerate flat multi-value range still renders") {
    val img = Raster.render(Array(Array(5.0, 5.0, 5.0)), 50, 40)
    assert(img.pixels.exists(_ > 0f))
  }

  test("single-point series renders one pixel") {
    val img = Raster.render(Array(Array(3.0)), 50, 40)
    assert(img.pixels.count(_ > 0f) == 1)
  }
}
