package repro.bench

import repro.SparkSpec
import repro.jobs.Jobs

/** End-to-end retrieval at toy scale: the full pipeline (generation →
  * ground truth → training → distributed scoring → metrics → index), the
  * same code path the bench suites run at full scale.
  */
class IntegrationSpec extends SparkSpec {

  private lazy val exp = UnitCtx.exp

  // the retraining and timed tables, at tiny grids, shared by the tests below
  private lazy val gridVII  = exp.tableVII(p1s = Seq(60), p2s = Seq(32, 64))
  private lazy val rowsVIII = exp.tableVIII()
  private lazy val rowsIX   = exp.tableIX(Seq(1, 3))

  test("ground truth: relevant sets have exactly k entries") {
    exp.gtMain.values.foreach(r => assert(r.length == exp.cfg.k))
  }

  test("ground truth: plain queries rank their source table first") {
    exp.bench.queries.filterNot(_.isDa).foreach { q =>
      assert(exp.gtMain(q.qid).head == q.sourceTable, s"query ${q.qid}")
    }
  }

  test("ground truth: relevant sets are dominated by the source family") {
    val byId = exp.bench.repo.map(t => t.id -> t).toMap
    exp.bench.queries.filterNot(_.isDa).foreach { q =>
      val rel = exp.gtMain(q.qid)
      val fromSource = rel.count { id =>
        val t = byId(id)
        t.id == q.sourceTable || t.parent == q.sourceTable
      }
      assert(fromSource >= rel.length / 2, s"query ${q.qid}: $fromSource of ${rel.length}")
    }
  }

  test("the unit experiment's rankings, head weights and score bits keep their digest") {
    // pinned as BenchDataSpec pins the benchmark's digest: a change that
    // moves a ranking, a head weight or a score bit fails here, and one
    // meant to move them updates the constant and says why
    assert(RankDigest.digest(exp) == "e6a2e568bdf6a636f4e063fbd92ac065db1aa29b8d9234e28a973dc666117d9f")
  }

  test("trained FCM head has finite weights of the right arity") {
    assert(exp.fcmCfg.weights.length == exp.defaultCfg.featureDim + 1)
    assert(exp.fcmCfg.weights.forall(_.isFinite))
  }

  test("FCM retrieves the source table near the top for plain queries") {
    val hits = exp.bench.queries.filterNot(_.isDa).count { q =>
      exp.rankFcm(q.qid).take(exp.cfg.k).contains(q.sourceTable)
    }
    assert(hits >= exp.bench.queries.count(!_.isDa) / 2)
  }

  test("every method produces metrics within [0, 1]") {
    exp.methodRanks.foreach { case (name, rank) =>
      val (p, n) = exp.metricsOf(rank, exp.queriesAll, exp.gtMain)
      assert(p >= 0.0 && p <= 1.0, name)
      assert(n >= 0.0 && n <= 1.0, name)
    }
  }

  test("FCM beats a perception-only baseline overall at toy scale") {
    val (pFcm, _)  = exp.metricsOf(exp.rankFcm, exp.queriesAll, exp.gtMain)
    val (pDeln, _) = exp.metricsOf(exp.rankDeLn, exp.queriesAll, exp.gtMain)
    assert(pFcm > 0.05)
    // toy scale (8 queries) is noisy; the full-scale comparison lives in
    // bench/Table2Bench
    assert(pFcm >= pDeln - 0.15)
  }

  test("tableII shape: rows for the three query groups, five methods each") {
    val t = exp.tableII()
    assert(t.map(_._1) == Seq("Overall", "With DA", "Without DA"))
    t.foreach { case (_, ms) => assert(ms.map(_.method) == Seq("CML", "DE-LN", "Opt-LN", "Qetch*", "FCM")) }
  }

  test("tableI counts add up") {
    val t = exp.tableI().toMap
    assert(t("Query").values.sum == exp.bench.queries.length)
    assert(t("Repository").values.sum == exp.bench.repo.length)
  }

  test("tableIV covers the sweep grid cells") {
    val t = exp.tableIV()
    assert(t.nonEmpty)
    t.keys.foreach { case (op, bucket) =>
      assert(Seq("avg", "sum", "max", "min").contains(op))
      assert(Seq("0-10", "20-40", "40-60", "60-80", "80-100").contains(bucket))
    }
    t.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
  }

  test("tableV/tableVI report both variants per group") {
    exp.tableV().foreach { case (_, f, h) =>
      assert(f.method == "FCM" && h.method == "FCM-HCMAN")
    }
    exp.tableVI().foreach { case (_, f, d) =>
      assert(f.method == "FCM" && d.method == "FCM-DA")
    }
  }

  test("index: interval strategy loses no relevant tables (same prec as scan)") {
    val rows = rowsVIII
    val byName = rows.map(r => r.strategy -> r).toMap
    assert(byName("No Index").avgCandidates == exp.bench.repo.length.toDouble)
    assert(byName("Interval Tree").prec >= byName("No Index").prec - 0.051)
    assert(byName("Hybrid").avgCandidates <= byName("LSH").avgCandidates + 1e-9)
    assert(byName("Hybrid").avgCandidates <= byName("Interval Tree").avgCandidates + 1e-9)
    rows.foreach(r => assert(r.timeMs >= 0))
  }

  test("tableIX returns one row per N- with bounded metrics") {
    val rows = rowsIX
    assert(rows.map(_._1) == Seq(1, 3))
    rows.foreach { case (_, p, n) =>
      assert(p >= 0.0 && p <= 1.0)
      assert(n >= 0.0 && n <= 1.0)
    }
  }

  test("tableVII produces a full grid at a tiny parameter range") {
    val grid = gridVII
    assert(grid.keySet == Set((60, 32), (60, 64)))
    grid.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
  }

  test("every paper table renders a header and a line per row, its row cells in columns") {
    val tables = Seq(
      "I"    -> (exp.renderTableI(exp.tableI()), 1 + 2),
      "II"   -> (exp.renderMethodTable(exp.tableII()), 1 + 3 * 2),
      "III"  -> (exp.renderMethodTable(exp.tableIII()), 1 + 4 * 2),
      "IV"   -> (exp.renderTableIV(exp.tableIV()), 1 + 4),
      "V"    -> (exp.renderTableV(exp.tableV()), 1 + 5),
      "VI"   -> (exp.renderTableVI(exp.tableVI()), 1 + 3),
      "VII"  -> (exp.renderTableVII(gridVII), 1 + 1),
      "VIII" -> (exp.renderTableVIII(rowsVIII), 1 + 4),
      "IX"   -> (exp.renderTableIX(rowsIX), 3)
    )
    tables.foreach { case (name, (text, nLines)) =>
      val lines = text.split("\n").toSeq
      assert(lines.length == nLines, s"Table $name:\n$text")
      // a row's cells are two or more spaces apart, so a label that runs
      // into its first value leaves its line a cell short
      val cells = lines.tail.map(_.split(" {2,}").length)
      assert(cells.distinct.length == 1, s"Table $name:\n$text")
    }
  }

  test("the table runner builds one experiment per scale, on the running session") {
    val session = spark
    val unit    = Jobs.experiment(BenchConfig.unit)
    assert(unit.spark eq session)
    assert(Jobs.experiment(BenchConfig.unit) eq unit)
    assert(!(Jobs.experiment(BenchConfig.small) eq unit))
  }
}
