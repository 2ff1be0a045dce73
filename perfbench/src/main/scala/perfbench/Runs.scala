package perfbench

import org.apache.spark.sql.SparkSession
import repro.bench._
import repro.core._
import repro.index.IndexStrategy
import repro.vis.Extractor

import scala.collection.mutable
import scala.util.Random

/** A workload bound to a generated repository and a set-up system: the
  * untimed verification, the timed loop and the checks that follow it.
  */
sealed abstract class WorkloadRun(
    val spark: SparkSession,
    val cores: Int,
    val k: Int,
    val bench: Bench,
    val queries: Array[Query],
    val served: Served,
    val gate: Gate
) {
  val allIds: Set[Long] = bench.repo.map(_.id).toSet

  /** Untimed: warms the JIT and records what the timed rankings must equal. */
  def prepare(): Unit

  /** Timed closed loop; per-operation ms and wall-clock seconds. */
  def loop(seconds: Double, minSamples: Int, tr: Tracer, wholeCycles: Boolean = true): (Array[Double], Double)

  /** Queries answered by one timed operation. */
  def queriesPerOp: Int

  /** One query ranked again over a repartitioned repository must give the
    * same ranking.
    */
  def repartitionCheck(i: Int): Unit

  /** Top-k the index recall and the quality metrics are measured against. */
  def reference: Map[Int, Array[Long]]

  /** (prec@k, ndcg@k) of the workload's rankings. */
  def quality(): (Double, Double)
}

object WorkloadRun {
  def apply(
      spark: SparkSession, cores: Int, workload: String, bench: Bench, queries: Array[Query], served: Served, gate: Gate
  ): WorkloadRun =
    if (workload == "label-gt") new LabelRun(spark, cores, Workloads.k(bench, workload), bench, queries, served, gate)
    else new SearchRun(spark, cores, Workloads.k(bench, workload), bench, queries, served, gate)
}

/** search-da and search-plain: one client, one query at a time. */
final class SearchRun(
    spark: SparkSession, cores: Int, k: Int, bench: Bench, queries: Array[Query], served: Served, gate: Gate
) extends WorkloadRun(spark, cores, k, bench, queries, served, gate) {

  private val cfg      = served.head.get
  private val expected = mutable.Map.empty[Int, Map[Long, Double]]
  private val first    = mutable.Map.empty[Int, Array[Long]]
  private val off      = new Tracer(false)

  /** One pass recomputes every candidate's score for every query; the
    * scores must be finite and cover exactly the candidate set. Each timed
    * ranking must follow their (−score, tid) order.
    */
  def prepare(): Unit = {
    val charts = queries.map { q =>
      val chart = ChartEncoder.encode(Extractor.extract(q.image), cfg)
      (q.pack.qid, chart, served.index.map(_.candidates(IndexStrategy.Hybrid, chart)).getOrElse(allIds))
    }
    val all = Workloads.scored(spark, served.tables, charts, cfg)
    charts.foreach { case (qid, _, cands) =>
      gate.op(s"q$qid: recomputed scores are finite and cover exactly the candidates") {
        val s = all(qid)
        expected(qid) = s.map(x => x.tid -> x.score).toMap
        s.forall(x => !x.score.isNaN && !x.score.isInfinite) && Workloads.covers(s.map(_.tid), cands, allIds)
      }
    }
  }

  def loop(seconds: Double, minSamples: Int, tr: Tracer, wholeCycles: Boolean): (Array[Double], Double) =
    Workloads.closedLoop(queries, seconds, minSamples, wholeCycles) { q =>
      val qid = q.pack.qid
      tr.op += 1
      gate.op(s"q$qid: ranking covers the candidates, follows (-score, tid) and repeats") {
        val (r, cands) = Workloads.search(spark, served, served.tables, allIds, q, tr)
        val f = first.getOrElseUpdate(qid, r)
        Workloads.covers(r, cands, allIds) && r.sameElements(f) && expected.get(qid).forall(ordered(r, _))
      }
    }

  def queriesPerOp: Int = 1

  /** `r` runs by descending score, ties by ascending tid. Scores within
    * 1e-9 of each other count as tied, so a scorer that moves scores by
    * rounding error alone still passes.
    */
  private def ordered(r: Array[Long], score: Map[Long, Double]): Boolean =
    r.iterator.sliding(2).withPartial(false).forall { case Seq(a, b) =>
      val (sa, sb) = (score(a), score(b))
      sa > sb || (sa == sb && a < b) || math.abs(sa - sb) <= 1e-9 * math.max(1.0, math.abs(sa))
    }

  def repartitionCheck(i: Int): Unit = {
    val q = queries(i)
    gate.op(s"q${q.pack.qid}: same ranking over the repartitioned repository") {
      val (r, _) = Workloads.search(spark, served, served.tables.repartition(2 * cores), allIds, q, off)
      first.get(q.pack.qid).exists(_.sameElements(r))
    }
  }

  lazy val reference: Map[Int, Array[Long]] =
    GroundTruth.topK(spark, served.tables, queries.map(_.pack), k)

  def quality(): (Double, Double) = Workloads.precNdcg(first.toMap, reference, k)
}

/** label-gt: one ground-truth pass over the main and sweep queries. */
final class LabelRun(
    spark: SparkSession, cores: Int, k: Int, bench: Bench, queries: Array[Query], served: Served, gate: Gate
) extends WorkloadRun(spark, cores, k, bench, queries, served, gate) {

  /** Queries whose exact top-k is recomputed on the driver. */
  val Sampled = 6

  private val packs   = queries.map(_.pack)
  private var ref     = Map.empty[Int, Array[Long]]
  private val exact   = mutable.Map.empty[Int, Array[Long]]

  private def wellFormed(r: Map[Int, Array[Long]]): Boolean =
    packs.forall { p =>
      r.get(p.qid).exists { ids =>
        ids.length == math.min(k, allIds.size) && ids.distinct.length == ids.length && ids.forall(allIds.contains)
      }
    }

  def prepare(): Unit = {
    gate.op("warm-up pass gives every query k distinct repository ids") {
      ref = GroundTruth.topK(spark, served.tables, packs, k)
      wellFormed(ref)
    }
    val prepared = bench.repo.map(t => t.id -> t.cols.map(Relevance.prep))
    val rng      = new Random(bench.cfg.seed ^ 0x6a7L)
    rng.shuffle(packs.toList).take(Sampled).foreach { p =>
      // Same ids in the same order; at a position where they differ, the two
      // tables' Rel must tie within 1e-9.
      gate.op(s"q${p.qid}: exact driver-side top-k is finite and matches the pass") {
        val rel = prepared.map { case (tid, cols) => tid -> Relevance.relPrepared(p.underlyingPrepared, cols) }.toMap
        exact(p.qid) = rel.toSeq.sortBy { case (tid, r) => (-r, tid) }.take(k).map(_._1).toArray
        rel.values.forall(r => !r.isNaN && !r.isInfinite) && ref.get(p.qid).exists { ids =>
          ids.length == exact(p.qid).length &&
          ids.zip(exact(p.qid)).forall { case (a, b) => a == b || math.abs(rel(a) - rel(b)) <= 1e-9 }
        }
      }
    }
  }

  def loop(seconds: Double, minSamples: Int, tr: Tracer, wholeCycles: Boolean): (Array[Double], Double) =
    Workloads.closedLoop(Array(packs), seconds, minSamples, wholeCycles) { ps =>
      tr.op += 1
      gate.op("ground-truth pass gives every query its k repository ids, as in the warm-up") {
        val r = tr.span("query")(tr.span("pass")(GroundTruth.topK(spark, served.tables, ps, k)))
        wellFormed(r) && packs.forall(p => r(p.qid).sameElements(ref(p.qid)))
      }
    }

  def queriesPerOp: Int = packs.length

  def repartitionCheck(i: Int): Unit = {
    val p = packs(i)
    gate.op(s"q${p.qid}: same top-k over the repartitioned repository") {
      GroundTruth.topK(spark, served.tables.repartition(2 * cores), Array(p), k).get(p.qid).exists(_.sameElements(ref(p.qid)))
    }
  }

  def reference: Map[Int, Array[Long]] = ref

  /** The distributed top-k against the exact driver-side top-k of the
    * sampled queries. It reads 1.0 whenever the exact top-k gate passes
    * (short of near-ties); it is reported because every workload reports
    * every end-to-end metric.
    */
  def quality(): (Double, Double) = Workloads.precNdcg(ref, exact.toMap, k)
}
