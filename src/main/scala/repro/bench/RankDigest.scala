package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest

/** One SHA-256 over what a change to the scoring code must keep bit for
  * bit at one scale: the `Engine.rank` rankings of FCM, FCM-DA, FCM-HCMAN,
  * CML, Qetch*, DE-LN, Opt-LN and the ground truth GT over the experiment's
  * repository; the three trained head weight vectors; and the raw score
  * bits of FCM, FCM-DA, Qetch* and GT on every (query, table) pair, read
  * from `Engine.scores`, the pass whose rows `Engine.rank` ranks. It uses
  * only the public scoring API, so the same file run on two revisions
  * tells whether they rank and score alike. `IntegrationSpec` pins the
  * digest of the unit-scale experiment; `repro.jobs.RankDigest` prints it
  * at any scale.
  */
object RankDigest {

  /** The digest of `e`, in lower-case hex. */
  def digest(e: Experiment): String = {
    val queries = e.bench.queries
    val sha     = MessageDigest.getInstance("SHA-256")
    def put(s: String): Unit = sha.update((s + "\n").getBytes(UTF_8))
    def bits(x: Double): String = java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(x))

    val fcm   = Scorer.fcm(e.fcmCfg)
    val daOff = Scorer.fcm(e.daOffCfg)
    val methods = Seq(
      "FCM" -> fcm, "FCM-DA" -> daOff, "FCM-HCMAN" -> Scorer.fcm(e.hcmanOffCfg), "CML" -> Scorer.cml,
      "Qetch*" -> Scorer.qetch, "DE-LN" -> Scorer.deln(e.cfg.chartW, e.cfg.chartH),
      "Opt-LN" -> Scorer.optLn(e.cfg.chartW, e.cfg.chartH), "GT" -> Scorer.gt
    )
    methods.foreach { case (name, scorer) =>
      val ranks = Engine.rank(e.spark, e.tablesDs, queries, scorer)._1
      ranks.toSeq.sortBy(_._1).foreach { case (qid, r) => put(s"rank $name $qid ${r.mkString(",")}") }
    }
    Seq("FCM" -> e.fcmCfg, "FCM-HCMAN" -> e.hcmanOffCfg, "FCM-DA" -> e.daOffCfg).foreach { case (name, c) =>
      put(s"head $name ${c.weights.map(bits).mkString(",")}")
    }
    Seq[(String, Scorer[_, _])]("FCM" -> fcm, "FCM-DA" -> daOff, "Qetch*" -> Scorer.qetch, "GT" -> Scorer.gt).foreach {
      case (name, scorer) =>
        Engine.scores(e.spark, e.tablesDs, queries, scorer, Map.empty)._1.sortBy(r => (r.qid, r.tid))
          .foreach(r => put(s"score $name ${r.qid} ${r.tid} ${bits(r.score)}"))
    }
    sha.digest().map(b => f"$b%02x").mkString
  }
}
