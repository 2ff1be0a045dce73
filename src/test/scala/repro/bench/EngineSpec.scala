package repro.bench

import repro.SparkSpec
import repro.baselines.{Cml, DeLn, LineNet, Qetch}
import repro.core._

class EngineSpec extends SparkSpec {

  private lazy val exp = UnitCtx.exp

  test("pass emits a full ranking per query (no index)") {
    val (ranks, ms) = Engine.rank(spark, exp.tablesDs, exp.bench.queries, Scorer.cml)
    assert(ms >= 0)
    assert(ranks.keySet == exp.bench.queries.map(_.qid).toSet)
    ranks.values.foreach(r => assert(r.length == exp.bench.repo.length))
  }

  test("rankings are sorted by descending score with deterministic ties") {
    val (a, _) = Engine.rank(spark, exp.tablesDs, exp.bench.queries, Scorer.cml)
    val (b, _) = Engine.rank(spark, exp.tablesDs, exp.bench.queries, Scorer.cml)
    a.foreach { case (qid, ranked) => assert(ranked.toSeq == b(qid).toSeq) }
  }

  test("restriction maps limit the scored tables") {
    val Array(q, other) = exp.bench.queries.take(2)
    val allowed  = exp.bench.repo.take(10).map(_.id).toSet
    val restrict = Map(q.qid -> allowed)
    val split    = exp.tablesDs.repartition(3)
    Seq[Scorer[_, _]](Scorer.fcm(FcmConfig()), Scorer.cml).foreach { scorer =>
      val (ranks, _) = Engine.rank(spark, exp.tablesDs, Array(q), scorer, restrict)
      assert(ranks(q.qid).toSet == allowed)
      val (both, _) = Engine.rank(spark, exp.tablesDs, Array(q, other), scorer, restrict)
      assert(both(q.qid).toSeq == ranks(q.qid).toSeq)
      assert(both(other.qid).length == exp.bench.repo.length)
      val (resplit, _) = Engine.rank(spark, split, Array(q, other), scorer, restrict)
      assert(resplit.keySet == both.keySet)
      both.foreach { case (qid, ranked) => assert(resplit(qid).toSeq == ranked.toSeq) }
    }
  }

  test("a fresh un-persisted Dataset ranks like the persisted one, pass after pass") {
    val sp = spark
    import sp.implicits._
    val fresh   = spark.createDataset(exp.bench.repo.toSeq)
    val queries = exp.bench.queries
    Seq[Scorer[_, _]](Scorer.fcm(FcmConfig()), Scorer.gt).foreach { scorer =>
      val (persisted, _) = Engine.rank(spark, exp.tablesDs, queries, scorer)
      val (again, _)     = Engine.rank(spark, exp.tablesDs, queries, scorer)
      val (first, _)     = Engine.rank(spark, fresh, queries, scorer)
      val (second, _)    = Engine.rank(spark, fresh, queries, scorer)
      Seq(again, first, second).foreach { ranks =>
        assert(ranks.keySet == persisted.keySet)
        persisted.foreach { case (qid, ranked) => assert(ranks(qid).toSeq == ranked.toSeq, s"query $qid") }
      }
    }
  }

  test("fcmRank covers sweep queries too") {
    val (ranks, _) = Engine.fcmRank(spark, exp.tablesDs, exp.bench.sweep.take(2), FcmConfig())
    assert(ranks.size == 2)
  }

  test("gtRank gives the source table a perfect score for plain queries") {
    val q = exp.bench.queries.find(!_.isDa).get
    val (ranks, _) = Engine.rank(spark, exp.tablesDs, Array(q), Scorer.gt)
    assert(ranks(q.qid).head == q.sourceTable)
  }

  test("rank equals a driver-side ranking of the repository for every method") {
    val w = exp.cfg.chartW
    val h = exp.cfg.chartH
    def fcm(cfg: FcmConfig): (QueryPack, BenchTable) => Double = (q, t) =>
      Matcher.score(ChartEncoder.encode(q.extracted, cfg), DatasetEncoder.encodeTable(t.id, t.cols, cfg), cfg)
    val methods: Seq[(String, Scorer[_, _], (QueryPack, BenchTable) => Double)] = Seq(
      ("FCM", Scorer.fcm(FcmConfig()), fcm(FcmConfig())),
      ("FCM-DA", Scorer.fcm(FcmConfig(useDa = false)), fcm(FcmConfig(useDa = false))),
      ("FCM-HCMAN", Scorer.fcm(FcmConfig(useHcman = false)), fcm(FcmConfig(useHcman = false))),
      ("CML", Scorer.cml, (q, t) => Cml.score(q.cmlVec, Cml.tableVec(t.cols))),
      ("Qetch*", Scorer.qetch, (q, t) => Qetch.score(q.extracted, t.cols)),
      ("DE-LN", Scorer.deln(w, h), (q, t) => DeLn.score(q.lineNetVec, DeLn.candidateVecs(t.cols, w, h))),
      ("Opt-LN", Scorer.optLn(w, h), (q, t) => LineNet.sim(q.lineNetVec, DeLn.optVec(t.cols, t.specCols, w, h))),
      ("GT", Scorer.gt, (q, t) => Relevance.relPrepared(q.underlyingPrepared, t.cols.map(Relevance.prep)))
    )
    val queries = exp.bench.queries
    methods.foreach { case (name, scorer, reference) =>
      val (ranks, _) = Engine.rank(spark, exp.tablesDs, queries, scorer)
      assert(ranks.keySet == queries.map(_.qid).toSet, name)
      queries.foreach { q =>
        val expected = exp.bench.repo
          .map(t => (reference(q, t), t.id))
          .sortBy { case (s, tid) => (-s, tid) }
          .map(_._2)
        assert(ranks(q.qid).toSeq == expected.toSeq, s"$name, query ${q.qid}")
      }
    }
  }
}
