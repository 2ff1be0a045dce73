package repro.bench

import repro.SparkSpec

/** Table IX (appendix) — impact of the number of negative samples N⁻.
  * Paper: prec@50 rises from N⁻=1 (.147) to N⁻=3 (.212), then plateaus
  * and eventually degrades slightly. Run at reduced scale with one
  * retrained head per N⁻.
  */
class Table9Bench extends SparkSpec {

  test("Table IX: the impact of the number of negative samples") {
    val e = BenchCtx.small
    BenchCtx.banner("Table IX: N- sweep (prec@%d / ndcg@%d, reduced scale)".format(e.cfg.k, e.cfg.k))
    val rows = e.tableIX()
    println(e.renderTableIX(rows))
    rows.foreach { case (_, p, n) =>
      assert(p >= 0.0 && p <= 1.0)
      assert(n >= 0.0 && n <= 1.0)
    }
    // shape: several negatives are at least as good as a single one
    val best = rows.map(_._2).max
    assert(best >= rows.head._2 - 0.02, s"best $best vs N-=1 ${rows.head._2}")
  }
}
