package repro.bench

import repro.SparkSpec

/** Table V — FCM vs FCM-HCMAN (the hierarchical cross-modal attention
  * ablation). Paper: FCM wins overall (.454 vs .368 prec@50) and in every
  * M bucket, with the gap growing as M increases.
  */
class Table5Bench extends SparkSpec {

  test("Table V: effectiveness of FCM vs FCM-HCMAN") {
    val e = BenchCtx.full
    BenchCtx.banner("Table V: FCM vs FCM-HCMAN (prec@%d / ndcg@%d)".format(e.cfg.k, e.cfg.k))
    val rows = e.tableV()
    println(e.renderTableV(rows))
    // shape: fine-grained matching beats pooled matching overall
    val overall = rows.find(_._1 == "Overall").get
    assert(overall._2.prec >= overall._3.prec,
      s"FCM ${overall._2.prec} vs FCM-HCMAN ${overall._3.prec}")
    assert(overall._2.ndcg >= overall._3.ndcg)
  }
}
