package repro.bench

import repro.SparkSpec

/** Table VIII — comparison of indexing strategies.
  * Paper: No index .494 prec / 374 s; Interval tree same prec / 187 s;
  * LSH .454 / 28 s; Hybrid .454 / 12 s (41x speedup, slight recall loss
  * from LSH, none from the interval tree).
  */
class Table8Bench extends SparkSpec {

  test("Table VIII: comparison of different indexing strategies") {
    val e = BenchCtx.full
    BenchCtx.banner("Table VIII: indexing strategies (prec@%d / ndcg@%d / time / candidates)".format(e.cfg.k, e.cfg.k))
    val rows = e.tableVIII()
    println(e.renderTableVIII(rows))
    val byName = rows.map(r => r.strategy -> r).toMap
    // the interval tree never eliminates a relevant dataset
    assert(byName("Interval Tree").prec >= byName("No Index").prec - 0.02)
    // every index prunes the candidate set; hybrid prunes the most
    assert(byName("Interval Tree").avgCandidates <= byName("No Index").avgCandidates)
    assert(byName("LSH").avgCandidates <= byName("No Index").avgCandidates)
    assert(byName("Hybrid").avgCandidates <=
      math.min(byName("LSH").avgCandidates, byName("Interval Tree").avgCandidates) + 1e-9)
    // LSH-based pruning may trade a little precision for speed, but stays useful
    assert(byName("Hybrid").prec >= 0.5 * byName("No Index").prec)
  }
}
