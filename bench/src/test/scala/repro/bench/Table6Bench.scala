package repro.bench

import repro.SparkSpec

/** Table VI — impact of the DA-related layers (FCM vs FCM-DA).
  * Paper: with DA queries FCM .398 vs FCM-DA .175 prec@50 (a 2.3x gap);
  * without DA the two are nearly identical (.589 vs .595).
  */
class Table6Bench extends SparkSpec {

  test("Table VI: impact of the DA-related layers") {
    val e = BenchCtx.full
    BenchCtx.banner("Table VI: FCM vs FCM-DA (prec@%d / ndcg@%d)".format(e.cfg.k, e.cfg.k))
    val rows = e.tableVI()
    println(e.renderTableVI(rows))
    val byLabel = rows.map(r => r._1 -> r).toMap
    // shape: the DA layers matter on DA queries...
    val (_, fDa, dDa) = byLabel("With DA")
    assert(fDa.prec >= dDa.prec, s"with DA: FCM ${fDa.prec} vs FCM-DA ${dDa.prec}")
    // ...and cost little on plain queries
    val (_, fNo, dNo) = byLabel("Without DA")
    assert(math.abs(fNo.prec - dNo.prec) <= 0.15,
      s"without DA: FCM ${fNo.prec} vs FCM-DA ${dNo.prec}")
  }
}
