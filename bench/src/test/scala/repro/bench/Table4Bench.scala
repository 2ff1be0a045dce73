package repro.bench

import repro.SparkSpec

/** Table IV — breakdown of DA-based queries by operator and window size.
  * Paper prec@50: sum/avg outscore min/max, and every operator degrades
  * once the window exceeds the dataset segment size P2 = 64 (buckets
  * 60-80 and 80-100 fall off sharply).
  */
class Table4Bench extends SparkSpec {

  test("Table IV: breakdown of DA-based queries using prec@k") {
    val e = BenchCtx.full
    BenchCtx.banner("Table IV: DA breakdown — operator x aggregation window (prec@%d)".format(e.cfg.k))
    val t = e.tableIV()
    println(e.renderTableIV(t))

    t.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
    // shape: small windows (within P2) beat the largest bucket on average
    def avgOf(bs: Seq[String]): Double = {
      val vs = t.collect { case ((_, b), v) if bs.contains(b) => v }
      vs.sum / math.max(1, vs.size)
    }
    val small = avgOf(Seq("0-10", "20-40", "40-60"))
    val large = avgOf(Seq("80-100"))
    assert(small >= large - 0.02, s"small-window avg $small vs 80-100 avg $large")
  }
}
