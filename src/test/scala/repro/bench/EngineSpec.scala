package repro.bench

import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD
import org.apache.spark.storage.StorageLevel
import org.apache.spark.util.LongAccumulator
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

  test("the experiment's repository Dataset reaches no driver-side rows through its lineage") {
    def lineage(rdd: RDD[_]): Seq[RDD[_]] = rdd +: rdd.dependencies.flatMap(d => lineage(d.rdd))
    val kinds = lineage(exp.tablesDs.rdd).map(_.getClass.getSimpleName)
    assert(!kinds.contains("ParallelCollectionRDD"), kinds)
    assert(exp.tablesDs.storageLevel != StorageLevel.NONE)
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

  /** Every method's scorer with a driver-side reference score. */
  private def methods: Seq[(String, Scorer[_, _], (QueryPack, BenchTable) => Double)] = {
    val w = exp.cfg.chartW
    val h = exp.cfg.chartH
    def fcm(cfg: FcmConfig): (QueryPack, BenchTable) => Double = (q, t) =>
      Matcher.score(ChartEncoder.encode(q.extracted, cfg), DatasetEncoder.encodeTable(t.id, t.cols, cfg), cfg)
    Seq(
      ("FCM", Scorer.fcm(FcmConfig()), fcm(FcmConfig())),
      ("FCM-DA", Scorer.fcm(FcmConfig(useDa = false)), fcm(FcmConfig(useDa = false))),
      ("FCM-HCMAN", Scorer.fcm(FcmConfig(useHcman = false)), fcm(FcmConfig(useHcman = false))),
      ("CML", Scorer.cml, (q, t) => Cml.score(q.cmlVec, Cml.tableVec(t.cols))),
      ("Qetch*", Scorer.qetch, (q, t) => Qetch.score(q.extracted, t.cols)),
      ("DE-LN", Scorer.deln(w, h), (q, t) => DeLn.score(q.lineNetVec, DeLn.candidateVecs(t.cols, w, h))),
      ("Opt-LN", Scorer.optLn(w, h), (q, t) => LineNet.sim(q.lineNetVec, DeLn.optVec(t.cols, t.specCols, w, h))),
      ("GT", Scorer.gt, (q, t) => Relevance.relPrepared(q.underlyingPrepared, t.cols.map(Relevance.prep)))
    )
  }

  /** Every query's ranking of the whole repository under `reference`, by (−score, tid). */
  private def driverRanks(reference: (QueryPack, BenchTable) => Double): Map[Int, Seq[Long]] =
    exp.bench.queries.map { q =>
      q.qid -> exp.bench.repo.map(t => (reference(q, t), t.id)).sortBy { case (s, tid) => (-s, tid) }.map(_._2).toSeq
    }.toMap

  test("rank equals a driver-side ranking of the repository for every method") {
    val queries = exp.bench.queries
    methods.foreach { case (name, scorer, reference) =>
      val (ranks, _) = Engine.rank(spark, exp.tablesDs, queries, scorer)
      assert(ranks.keySet == queries.map(_.qid).toSet, name)
      driverRanks(reference).foreach { case (qid, expected) =>
        assert(ranks(qid).toSeq == expected, s"$name, query $qid")
      }
    }
  }

  /** `scorer`'s score of one (query, table) pair, computed on the driver. */
  private def scoreOf[Q, T](scorer: Scorer[Q, T], q: QueryPack, t: BenchTable): Double =
    scorer.score(scorer.query(q), scorer.table(t))

  test("every method gives a finite score for a table with a NaN cell and a ±Inf cell") {
    // the first table of two or more columns, and the source table of a
    // plain query, whose columns the query's lines match
    val plain  = exp.bench.queries.find(!_.isDa).get
    val tables = Seq(exp.bench.repo.find(_.cols.length >= 2).get, exp.bench.repo.find(_.id == plain.sourceTable).get)
    def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
    val unequal = (for {
      t <- tables
      dirty = t.copy(cols = t.cols.zipWithIndex.map {
        case (c, 0) => c.updated(3, Double.NaN)
        case (c, 1) => c.updated(5, Double.PositiveInfinity).updated(9, Double.NegativeInfinity)
        case (c, _) => c
      })
      // the non-finite cells are left out: the table scores as it does without them
      clean = dirty.copy(cols = dirty.cols.map(_.filter(java.lang.Double.isFinite)))
      (name, scorer, _) <- methods
      q <- exp.bench.queries
      s = scoreOf(scorer, q, dirty)
      _ = assert(java.lang.Double.isFinite(s), s"$name, table ${t.id}, query ${q.qid}: $s")
      if bits(s) != bits(scoreOf(scorer, q, clean))
    } yield name).distinct
    assert(unequal.isEmpty)
  }

  test("every method scores a table with no columns exactly 0") {
    // and a table whose only column has no rows, or no finite cell
    val empties = Seq(
      BenchTable(-1L, Array.empty[Array[Double]], Array.empty[Int], -1L, "empty"),
      BenchTable(-2L, Array(Array.empty[Double]), Array(0), -2L, "no rows"),
      BenchTable(-3L, Array(Array(Double.NaN, Double.PositiveInfinity, Double.NaN, Double.NegativeInfinity)), Array(0), -3L, "non-finite")
    )
    for (t <- empties; (name, scorer, _) <- methods; q <- exp.bench.queries)
      assert(scoreOf(scorer, q, t) == 0.0, s"$name, ${t.family} table, query ${q.qid}")
  }

  test("a restricted first pass over a fresh Dataset, then a full pass, ranks like the driver for every method") {
    val fresh    = exp.tablesDs.filter(_ => true).persist()
    val queries  = exp.bench.queries
    val restrict = Map(queries(0).qid -> exp.bench.repo.take(5).map(_.id).toSet)
    methods.foreach { case (name, scorer, reference) =>
      val (restricted, _) = Engine.rank(spark, fresh, queries.take(1), scorer, restrict)
      assert(restricted(queries(0).qid).toSet == restrict(queries(0).qid), name)
      val (full, _) = Engine.rank(spark, fresh, queries, scorer)
      assert(full.keySet == queries.map(_.qid).toSet, name)
      driverRanks(reference).foreach { case (qid, expected) =>
        assert(full(qid).toSeq == expected, s"$name, query $qid")
      }
    }
    fresh.unpersist(blocking = true)
  }

  /** A scorer like `Scorer.cml` whose `table` counts its calls in `count`. */
  private def counting(name: String, count: LongAccumulator) = Scorer[Array[Double], Array[Double]](
    name,
    _.cmlVec,
    t => { count.add(1); Cml.tableVec(t.cols) },
    Cml.score
  )

  test("a scorer's table encoding runs once per table across passes over one Dataset") {
    val encodedCount = spark.sparkContext.longAccumulator("tables encoded")
    val counting     = this.counting("counting cml", encodedCount)
    val queries  = exp.bench.queries
    val restrict = Map(queries(0).qid -> exp.bench.repo.take(3).map(_.id).toSet)
    val (restricted, _) = Engine.rank(spark, exp.tablesDs, queries.take(1), counting, restrict)
    val (first, _)      = Engine.rank(spark, exp.tablesDs, queries, counting)
    val (second, _)     = Engine.rank(spark, exp.tablesDs, queries, counting)
    assert(encodedCount.value == exp.bench.repo.length)
    assert(restricted(queries(0).qid).length == 3)
    val (cml, _) = Engine.rank(spark, exp.tablesDs, queries, Scorer.cml)
    Seq(first, second).foreach(ranks => cml.foreach { case (qid, r) => assert(ranks(qid).toSeq == r.toSeq) })
    // another repository Dataset has encodings of its own
    val even = exp.tablesDs.filter(_.id % 2 == 0).persist()
    val (evenRanks, _) = Engine.rank(spark, even, queries, counting)
    Engine.rank(spark, even, queries, counting)
    val evenIds = exp.bench.repo.map(_.id).filter(_ % 2 == 0)
    assert(encodedCount.value == exp.bench.repo.length + evenIds.length)
    evenRanks.foreach { case (qid, r) => assert(r.toSeq == cml(qid).filter(_ % 2 == 0).toSeq) }
    even.unpersist(blocking = true)
  }

  test("encodings are kept only while their Dataset is persisted") {
    val encodedCount = spark.sparkContext.longAccumulator("tables encoded")
    val counting     = this.counting("counting cml, persisted or not", encodedCount)
    def cachedEncodings =
      spark.sparkContext.getPersistentRDDs.values.count(_.name == s"encoded repository: ${counting.encoding}")
    val queries = exp.bench.queries
    val odd     = exp.tablesDs.filter(_.id % 2 == 1).persist()
    val oddIds  = exp.bench.repo.map(_.id).filter(_ % 2 == 1)
    val (ref, _) = Engine.rank(spark, odd, queries, counting)
    Engine.rank(spark, exp.tablesDs, queries, counting)
    assert(cachedEncodings == 2)
    assert(encodedCount.value == oddIds.length + exp.bench.repo.length)
    // the next pass after `unpersist` releases the Dataset's encodings, and
    // a Dataset that is not persisted is encoded by every pass
    odd.unpersist(blocking = true)
    val (first, _)  = Engine.rank(spark, odd, queries, counting)
    val (second, _) = Engine.rank(spark, odd, queries, counting)
    assert(cachedEncodings == 1)
    assert(encodedCount.value == 3 * oddIds.length + exp.bench.repo.length)
    Seq(first, second).foreach(ranks => ref.foreach { case (qid, r) => assert(ranks(qid).toSeq == r.toSeq) })
  }

  test("the first pass over a persisted Dataset checkpoints its encoding") {
    val scorer = Scorer.cml.copy(encoding = "cml, checkpointed")
    def memoised = spark.sparkContext.getPersistentRDDs.values.filter(_.name == s"encoded repository: ${scorer.encoding}")
    val ds = exp.tablesDs.filter(_ => true).persist()
    // a pass that scores no pair still encodes, and checkpoints, every table
    Engine.rank(spark, ds, exp.bench.queries.take(1), scorer, Map(exp.bench.queries(0).qid -> Set.empty[Long]))
    assert(memoised.size == 1)
    assert(memoised.forall(_.isCheckpointed))
    ds.unpersist(blocking = true)
  }

  test("a Dataset unpersisted and persisted again between passes ranks the same on every pass") {
    val ds      = exp.tablesDs.filter(_ => true).persist()
    val queries = exp.bench.queries
    Seq[Scorer[_, _]](Scorer.fcm(FcmConfig(useDa = false)), Scorer.cml).foreach { scorer =>
      val (ref, _) = Engine.rank(spark, ds, queries, scorer)
      ds.unpersist(blocking = true)
      val (unpersisted, _) = Engine.rank(spark, ds, queries, scorer)
      ds.persist()
      val (first, _)  = Engine.rank(spark, ds, queries, scorer)
      val (second, _) = Engine.rank(spark, ds, queries, scorer)
      Seq(unpersisted, first, second).foreach { ranks =>
        assert(ranks.keySet == ref.keySet)
        ref.foreach { case (qid, ranked) => assert(ranks(qid).toSeq == ranked.toSeq, s"query $qid") }
      }
    }
    ds.unpersist(blocking = true)
  }

  test("a restricted pass equals the unrestricted ranking filtered to each query's candidates") {
    val queries = exp.bench.queries
    val ids     = exp.bench.repo.map(_.id)
    val restrict = Map(
      queries(0).qid -> ids.take(7).toSet,
      queries(1).qid -> ids.filter(_ % 3 == 1).toSet,
      queries(2).qid -> Set.empty[Long]
    )
    Seq[Scorer[_, _]](Scorer.fcm(FcmConfig()), Scorer.cml, Scorer.gt).foreach { scorer =>
      val (full, _)       = Engine.rank(spark, exp.tablesDs, queries, scorer)
      val (restricted, _) = Engine.rank(spark, exp.tablesDs, queries, scorer, restrict)
      queries.foreach { q =>
        val expected = restrict.get(q.qid).fold(full(q.qid).toSeq)(allowed => full(q.qid).toSeq.filter(allowed))
        assert(restricted.getOrElse(q.qid, Array.empty[Long]).toSeq == expected, s"query ${q.qid}")
      }
    }
  }

  test("a pass whose prepared query cannot be serialised fails, and the next pass ranks") {
    val unserialisable = Scorer[Object, Array[Double]]("cml, unserialisable query", _ => new Object, t => Cml.tableVec(t.cols), (_, _) => 0.5)
    val failure = intercept[SparkException](Engine.rank(spark, exp.tablesDs, exp.bench.queries.take(1), unserialisable))
    assert(failure.getMessage.contains("not serializable"), failure.getMessage)
    val (ranks, _) = Engine.rank(spark, exp.tablesDs, exp.bench.queries, Scorer.cml)
    assert(ranks.keySet == exp.bench.queries.map(_.qid).toSet)
    ranks.values.foreach(r => assert(r.length == exp.bench.repo.length))
  }

  test("FCM encodings depend on p2 and useDa only, and no two methods share an encoding") {
    val base = FcmConfig()
    val same = Seq(
      base.withWeights(Array.fill(7)(0.5)),
      base.copy(p1 = 15),
      base.copy(useHcman = false),
      base.copy(useHcman = false, weights = Array.fill(4)(1.0))
    )
    same.foreach(c => assert(Scorer.fcm(c).encoding == Scorer.fcm(base).encoding, c))
    Seq(base.copy(p2 = 32), base.copy(useDa = false), base.copy(p2 = 32, useDa = false)).foreach { c =>
      assert(Scorer.fcm(c).encoding != Scorer.fcm(base).encoding, c)
    }
    val encodings = methods.filterNot(_._1 == "FCM-HCMAN").map(_._2.encoding)
    assert(encodings.distinct.length == encodings.length, encodings)
    assert(Scorer.deln(480, 160).encoding != Scorer.deln(960, 240).encoding)
    assert(Scorer.optLn(480, 160).encoding != Scorer.optLn(960, 240).encoding)
  }
}
