package perfbench

import org.apache.spark.sql.SparkSession
import repro.baselines.{Cml, DeLn, LineNet, Qetch}
import repro.bench._
import repro.core._
import repro.index.IndexStrategy
import repro.vis._

import scala.collection.mutable
import scala.util.Random

/** One reported metric. */
final case class Metric(name: String, value: Double, unit: String)

/** Per-layer measurements of the traced run. Every layer is reached only
  * through its public functions. The FCM and ground-truth passes are broken
  * down on sampled (query, table) pairs by timing, one after another on the
  * same inputs, the public function of each layer; self times are the
  * differences between a layer and the layers it calls.
  */
object Layers {

  /** Sampled pairs per breakdown. */
  val SamplePairs = 24

  /** Rounds over the sampled pairs; a layer's time per pair is its median
    * over the rounds. Operation `round * SamplePairs + i` is pair `i`.
    */
  val Rounds = 5

  /** Tables sampled for per-table encode and baseline costs. */
  val SampleTables = 24

  /** Weight of an exact maximum-weight matching of `w` (each row to at most
    * one distinct column, rows may stay unmatched), by a DP over the subsets
    * of rows. The reference `Matching.maxWeight` is compared with; charts
    * have at most 16 lines.
    */
  def exactMatchWeight(w: Array[Array[Double]]): Double = {
    val nR = w.length
    require(nR <= 16, s"exact matching reference takes at most 16 rows, got $nR")
    val nC   = if (nR == 0) 0 else w(0).length
    var best = Array.fill(1 << nR)(Double.NegativeInfinity)
    best(0) = 0.0
    var c = 0
    while (c < nC) {
      val next = best.clone()
      var mask = 0
      while (mask < best.length) {
        if (best(mask) != Double.NegativeInfinity) {
          var r = 0
          while (r < nR) {
            if ((mask & (1 << r)) == 0 && best(mask) + w(r)(c) > next(mask | (1 << r))) next(mask | (1 << r)) = best(mask) + w(r)(c)
            r += 1
          }
        }
        mask += 1
      }
      best = next
      c += 1
    }
    best.max
  }

  /** Counts `Matching.maxWeight` results that fall short of the exact
    * optimum: what the greedy fallback for wide tables costs.
    */
  final class MatchCheck {
    var calls = 0
    var short = 0
    def apply(w: Array[Array[Double]], got: (Double, Array[Int])): Unit = {
      val exact = exactMatchWeight(w)
      calls += 1
      if (got._1 < exact - 1e-9 * math.max(1.0, math.abs(exact))) short += 1
    }
  }

  /** Keeps timed results alive so the JIT cannot drop the calls. */
  @volatile var sink: Any = null

  /** Calls made in one round over the sampled pairs, and the line × column
    * pairs the MoE handed to an aggregation expert.
    */
  final case class Calls(moe: Int, slSan: Int, dtw: Int, aggWins: Int)

  /** FCM scoring of sampled pairs, one span per layer and pair:
    * `encodeTable`, `score`, `tableFeatures`, `daPairFeatures` on every
    * line × column (the MoE), `pairFeatures` on every line × column and,
    * with DA, every variant of the column (the SL-SAN calls of the MoE
    * sweep) and `Matching.maxWeight` on the matrix of pair scores.
    */
  private def fcmPairs(pairs: Array[(ChartEmb, BenchTable)], cfg: FcmConfig, mc: MatchCheck): (Tracer, Calls) = {
    val tr    = new Tracer(true)
    var calls = Calls(0, 0, 0, 0)
    for (round <- 0 until Rounds; ((chart, t), i) <- pairs.zipWithIndex) {
      tr.op = round * pairs.length + i
      tr.span("pair") {
        val emb = tr.span("table_encode")(DatasetEncoder.encodeTable(t.id, t.cols, cfg))
        sink = tr.span("score")(Matcher.score(chart, emb, cfg))
        sink = tr.span("table_features")(Matcher.tableFeatures(chart, emb, cfg))
        val (u, ops) = tr.span("moe") {
          val ops = Array.ofDim[Int](chart.m, emb.cols.length)
          val u = Array.tabulate(chart.m, emb.cols.length) { (l, c) =>
            val (f, op) = Matcher.daPairFeatures(chart.lines(l), emb.cols(c), cfg)
            ops(l)(c) = op
            Matcher.preScore(f)
          }
          (u, ops)
        }
        val targets = for (line <- chart.lines; col <- emb.cols; v <- (col.segs, col.pos) +:
                             (if (cfg.useDa) col.variants.toSeq.map(v => (v.segs, v.pos)) else Nil)) yield (line, v)
        tr.span("sl_san")(targets.foreach { case (line, (segs, pos)) => sink = Matcher.pairFeatures(line.segs, line.pos, segs, pos, cfg) })
        val got = tr.span("matching")(Matching.maxWeight(u))
        if (round == 0) {
          mc(u, got)
          calls = calls.copy(moe = calls.moe + u.map(_.length).sum, slSan = calls.slSan + targets.length,
                             aggWins = calls.aggWins + ops.map(_.count(_ != 0)).sum)
        }
      }
    }
    (tr, calls)
  }

  /** Ground-truth relevance of sampled pairs: `Relevance.prep` of the
    * table's columns, `relPrepared`, and its parts `Dtw.rel` per line ×
    * column and `Matching.maxWeight`.
    */
  private def gtPairs(pairs: Array[(Array[Array[Double]], BenchTable)], mc: MatchCheck): (Tracer, Calls) = {
    val tr  = new Tracer(true)
    var dtw = 0
    for (round <- 0 until Rounds; ((d, t), i) <- pairs.zipWithIndex) {
      tr.op = round * pairs.length + i
      tr.span("pair") {
        val prepared = tr.span("prep")(t.cols.map(Relevance.prep))
        sink = tr.span("rel")(Relevance.relPrepared(d, prepared))
        val w = tr.span("dtw")(Array.tabulate(d.length, prepared.length)((l, c) => Dtw.rel(d(l), prepared(c))))
        val got = tr.span("matching")(Matching.maxWeight(w))
        if (round == 0) { mc(w, got); dtw += d.length * prepared.length }
      }
    }
    (tr, Calls(0, 0, dtw, 0))
  }

  /** The layer section of a traced run. `gt` is the workload's reference
    * top-k per query id. Appends the metrics and returns the breakdown
    * tracers.
    */
  def run(
      spark: SparkSession,
      bench: Bench,
      queries: Array[Query],
      served: Served,
      gt: Map[Int, Array[Long]],
      seed: Long,
      out: mutable.ArrayBuffer[Metric]
  ): Seq[(String, Tracer)] = {
    val rng     = new Random(seed ^ 0x1a7e5L)
    val repo    = bench.repo
    val daCfg   = served.head.filter(_.useDa).getOrElse(FcmConfig())
    val baseCfg = served.head.filter(!_.useDa).getOrElse(FcmConfig(useDa = false))
    def add(name: String, v: Double, unit: String): Unit = out += Metric(name, v, unit)

    // ---- vis / chart side, on the workload's own query images ----------
    val extracted = queries.map(q => Extractor.extract(q.image))
    add("vis.extract_us", Stats.mean(queries.map(q => Stats.medianUs(3, 1)(Extractor.extract(q.image)))), "us")
    add("core.chart_encode_us", Stats.mean(extracted.map(ex => Stats.medianUs(5, 1)(ChartEncoder.encode(ex, daCfg)))), "us")

    // ---- dataset encoder, on sampled repository tables -------------------
    val sample = rng.shuffle(repo.toList).take(SampleTables).toArray
    add("core.table_encode_da_us", Stats.mean(sample.map(t => Stats.medianUs(3, 1)(DatasetEncoder.encodeTable(t.id, t.cols, daCfg)))), "us")
    add("core.table_encode_base_us", Stats.mean(sample.map(t => Stats.medianUs(3, 1)(DatasetEncoder.encodeTable(t.id, t.cols, baseCfg)))), "us")
    val daCols = repo.flatMap(t => DatasetEncoder.encodeTable(t.id, t.cols, daCfg).cols)
    add("core.da_variants_per_col", daCols.map(_.variants.length.toDouble).sum / daCols.length, "count")

    // ---- breakdowns: FCM with DA, FCM without DA, ground truth -----------
    val pairs = Array.fill(SamplePairs)((rng.nextInt(queries.length), rng.nextInt(repo.length)))
    val mc    = new MatchCheck
    def pairCharts(cfg: FcmConfig) = pairs.map { case (qi, ti) => (ChartEncoder.encode(extracted(qi), cfg), repo(ti)) }
    val (daTr, daCalls) = fcmPairs(pairCharts(daCfg), daCfg, mc)
    val (baseTr, _)     = fcmPairs(pairCharts(baseCfg), baseCfg, mc)
    val (gtTr, gtCalls) = gtPairs(pairs.map { case (qi, ti) => (queries(qi).pack.underlyingPrepared, repo(ti)) }, mc)

    // µs per pair of the spans named `name`: per pair the median over the
    // rounds, then the mean over the pairs.
    def t(tr: Tracer, name: String): Double = {
      val byOp = tr.nsByOp(name)
      Stats.mean(pairs.indices.map(i => Stats.median((0 until Rounds).map(r => byOp.getOrElse(r * SamplePairs + i, 0L).toDouble)))) / 1e3
    }
    def perCall(tr: Tracer, name: String, calls: Int): Double = t(tr, name) * SamplePairs / math.max(1, calls)
    val slSanUs = perCall(daTr, "sl_san", daCalls.slSan)
    add("core.sl_san_us", slSanUs, "us")
    // MoE time per pair in SL-SAN calls: moves when the sweep skips variants.
    add("core.sl_san_calls_per_pair", t(daTr, "moe") / slSanUs, "count")
    add("core.moe_us", perCall(daTr, "moe", daCalls.moe), "us")
    add("core.moe_expert_win_frac", daCalls.aggWins.toDouble / math.max(1, daCalls.moe), "frac")
    add("core.dtw_us", perCall(gtTr, "dtw", gtCalls.dtw), "us")
    add("core.matching_greedy_frac", mc.short.toDouble / math.max(1, mc.calls), "frac")

    // Self times per pair. A layer's time is the span of its own public
    // call; its self time is that minus the calls it makes: score minus
    // tableFeatures is the head, tableFeatures minus the MoE and matching is
    // the LL-SAN assembly (reported as score), the MoE minus its SL-SAN
    // calls is the gate. Differences of noisy timings can read below 0.
    for ((label, tr) <- Seq("da" -> daTr, "base" -> baseTr)) {
      add(s"self.$label.table_encode_us", t(tr, "table_encode"), "us")
      add(s"self.$label.score_us", t(tr, "table_features") - t(tr, "moe") - t(tr, "matching"), "us")
      add(s"self.$label.moe_us", t(tr, "moe") - t(tr, "sl_san"), "us")
      add(s"self.$label.sl_san_us", t(tr, "sl_san"), "us")
      add(s"self.$label.matching_us", t(tr, "matching"), "us")
      add(s"self.$label.head_us", t(tr, "score") - t(tr, "table_features"), "us")
    }
    add("self.gt.prep_us", t(gtTr, "prep"), "us")
    add("self.gt.rel_us", t(gtTr, "rel") - t(gtTr, "dtw") - t(gtTr, "matching"), "us")
    add("self.gt.dtw_us", t(gtTr, "dtw"), "us")
    add("self.gt.matching_us", t(gtTr, "matching"), "us")

    // ---- training ------------------------------------------------------
    add("core.train_s", Stats.medianUs(3, 0)(Workloads.train(bench, FcmConfig())) / 1e6, "s")

    // ---- index ---------------------------------------------------------
    add("index.build_ms", Stats.medianUs(3, 0)(Workloads.buildIndex(bench)) / 1e3, "ms")
    val index  = served.index.getOrElse(Workloads.buildIndex(bench))
    val charts = extracted.map(ChartEncoder.encode(_, daCfg))
    val cands  = charts.map(index.candidates(IndexStrategy.Hybrid, _))
    add("index.probe_us", Stats.mean(charts.map(c => Stats.medianUs(5, 1)(index.candidates(IndexStrategy.Hybrid, c)))), "us")
    add("index.candidate_frac", Stats.mean(cands.map(_.size.toDouble / repo.length)), "frac")
    val recalls = queries.indices.flatMap { i =>
      gt.get(queries(i).pack.qid).filter(_.nonEmpty).map(g => g.count(cands(i).contains).toDouble / g.length)
    }
    add("index.candidate_recall", Stats.mean(recalls), "frac")

    // ---- pass shape ----------------------------------------------------
    val noop = Stats.medianUs(7, 2)(Engine.pass(spark, served.tables, _ => Iterator.empty)) / 1e3
    val nq   = queries.length
    val full = Stats.medianUs(7, 2)(
      Engine.pass(spark, served.tables, t => Iterator.tabulate(nq)(q => Scored(q, t.id, 0.5)))
    ) / 1e3
    add("bench.pass_overhead_ms", noop, "ms")
    add("bench.collect_rank_ms", full - noop, "ms")

    // ---- baselines, per table ------------------------------------------
    val q0 = queries(0).pack
    val (w, h) = (bench.cfg.chartW, bench.cfg.chartH)
    def perTable(f: BenchTable => Any): Double = Stats.mean(sample.map(t => Stats.medianUs(3, 1)(f(t))))
    add("baselines.cml_us", perTable(t => Cml.score(q0.cmlVec, Cml.tableVec(t.cols))), "us")
    add("baselines.qetch_us", perTable(t => Qetch.score(q0.extracted, t.cols)), "us")
    add("baselines.deln_us", perTable(t => DeLn.score(q0.lineNetVec, DeLn.candidateVecs(t.cols, w, h))), "us")
    add("baselines.optln_us", perTable(t => LineNet.sim(q0.lineNetVec, DeLn.optVec(t.cols, t.specCols, w, h))), "us")

    Seq("layers_da" -> daTr, "layers_base" -> baseTr, "layers_gt" -> gtTr)
  }
}
