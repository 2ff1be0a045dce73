package repro.bench

import repro.SparkSpec

class BenchDataSpec extends SparkSpec {

  private lazy val bench = UnitCtx.exp.bench
  private val cfg        = BenchConfig.unit

  test("repository size follows the construction protocol") {
    val expected = cfg.nRepoBase + cfg.nQueryTables + cfg.nQueryTables * cfg.noisePerQuery
    assert(bench.repo.length == expected)
  }

  test("table ids are unique and dense") {
    val ids = bench.repo.map(_.id)
    assert(ids.distinct.length == ids.length)
    assert(ids.min == 0L)
  }

  test("every table has at least two columns and an associated spec") {
    bench.repo.foreach { t =>
      assert(t.cols.length >= 2)
      assert(t.specCols.nonEmpty)
      assert(t.specCols.forall(c => c >= 0 && c < t.cols.length))
    }
  }

  test("noise copies point at their parent and stay within the U(0.9,1.1) band") {
    val byId = bench.repo.map(t => t.id -> t).toMap
    val noise = bench.repo.filter(_.parent >= 0)
    assert(noise.length == cfg.nQueryTables * cfg.noisePerQuery)
    noise.foreach { t =>
      val p = byId(t.parent)
      assert(p.parent == -1L)
      t.cols.zip(p.cols).foreach { case (c, pc) =>
        c.zip(pc).foreach { case (v, pv) =>
          if (math.abs(pv) > 1e-9) {
            val ratio = v / pv
            assert(ratio > 0.9 - 1e-9 && ratio < 1.1 + 1e-9)
          }
        }
      }
    }
  }

  test("queryMs follows the Table I proportions") {
    val ms = BenchData.queryMs(100)
    assert(ms.count(_ == 1) == 37)
    assert(ms.count(m => m >= 2 && m <= 4) == 25)
    assert(ms.count(m => m >= 5 && m <= 7) == 21)
    assert(ms.count(_ > 7) == 17)
  }

  test("mBucket boundaries") {
    assert(BenchData.mBucket(1) == "1")
    assert(BenchData.mBucket(2) == "2-4" && BenchData.mBucket(4) == "2-4")
    assert(BenchData.mBucket(5) == "5-7" && BenchData.mBucket(7) == "5-7")
    assert(BenchData.mBucket(8) == ">7")
  }

  test("two queries per query table: one plain, one DA") {
    assert(bench.queries.length == 2 * cfg.nQueryTables)
    val bySource = bench.queries.groupBy(_.sourceTable)
    bySource.values.foreach { qs =>
      assert(qs.length == 2)
      assert(qs.count(_.isDa) == 1)
    }
  }

  test("DA queries carry a valid operator and window") {
    bench.queries.filter(_.isDa).foreach { q =>
      assert(q.opId >= 1 && q.opId <= 4)
      assert(q.window >= 2 && q.window <= 100)
    }
    bench.queries.filterNot(_.isDa).foreach(q => assert(q.opId == 0 && q.window == 0))
  }

  test("query ids are unique across main and sweep queries") {
    val ids = (bench.queries ++ bench.sweep).map(_.qid)
    assert(ids.distinct.length == ids.length)
  }

  test("sweep queries are single-line DA charts over the sweep grid") {
    assert(bench.sweep.nonEmpty)
    bench.sweep.foreach { q =>
      assert(q.isDa && q.m == 1)
      assert(cfg.sweepWindows.contains(q.window))
    }
    assert(bench.sweep.map(_.opId).distinct.sorted.toSeq == Seq(1, 2, 3, 4))
  }

  test("query packs carry non-empty representations") {
    (bench.queries ++ bench.sweep).foreach { q =>
      assert(q.extractedLines.nonEmpty)
      assert(q.yLo < q.yHi)
      assert(q.cmlVec.exists(_ != 0.0))
      assert(q.lineNetVec.exists(_ != 0.0))
      assert(q.underlyingPrepared.nonEmpty)
    }
  }

  test("train packs are present and complete") {
    assert(bench.trainPacks.length == cfg.nTrain)
    bench.trainPacks.foreach { p =>
      assert(p.extractedLines.nonEmpty)
      assert(p.rawCols.length >= 2)
      assert(p.underlyingPrepared.nonEmpty)
    }
  }

  test("generation is deterministic in the seed") {
    // Pins the generated benchmark bit for bit, whatever the core count or
    // Spark master: generation runs on the driver from fixed seeds.
    val digest = BenchDataSpec.digest(BenchData.generate(cfg))
    assert(digest == BenchDataSpec.digest(bench))
    assert(digest == "aa97677a0ce4fcd82b42ce09d70cff1e836840d31141e1ce71e398cb9274f195")
  }
}

object BenchDataSpec {

  /** SHA-256 over the raw bits of a generated benchmark: every repository
    * table (id, parent, family, spec columns and cells), every main and
    * sweep query (every field of its pack) and every train pack.
    */
  def digest(b: Bench): String = {
    val md  = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    def long(v: Long): Unit          = { buf.clear(); md.update(buf.putLong(v).array()) }
    def dbl(v: Double): Unit         = long(java.lang.Double.doubleToRawLongBits(v))
    def arr(xs: Array[Double]): Unit = { long(xs.length.toLong); xs.foreach(dbl) }
    def arrs(xss: Array[Array[Double]]): Unit = { long(xss.length.toLong); xss.foreach(arr) }
    b.repo.foreach { t =>
      long(t.id); long(t.parent); md.update(t.family.getBytes("UTF-8"))
      arr(t.specCols.map(_.toDouble)); arrs(t.cols)
    }
    (b.queries ++ b.sweep).foreach { q =>
      long(q.qid.toLong); long(q.sourceTable); long(q.m.toLong); long(if (q.isDa) 1L else 0L)
      long(q.opId.toLong); long(q.window.toLong)
      arrs(q.extractedLines); dbl(q.yLo); dbl(q.yHi)
      arr(q.cmlVec); arr(q.lineNetVec); arrs(q.underlyingPrepared)
    }
    b.trainPacks.foreach { p =>
      arrs(p.extractedLines); dbl(p.yLo); dbl(p.yHi); arrs(p.underlyingPrepared); arrs(p.rawCols)
    }
    md.digest().map(x => f"$x%02x").mkString
  }
}
