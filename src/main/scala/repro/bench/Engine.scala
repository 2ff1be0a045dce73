package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines.{Cml, DeLn, LineNet, Qetch}
import repro.core._

/** One scored (query, table) pair emitted by a distributed scoring pass. */
final case class Scored(qid: Int, tid: Long, score: Double)

/** One retrieval method as the three steps of a scoring pass: `query`
  * prepares a query on the driver (the result is broadcast), `table`
  * encodes one repository table inside the executors, and `score` scores
  * one (query, table) pair. Scorers capture only plain values, so they
  * serialise into the pass's closure.
  */
final case class Scorer[Q, T](
    query: QueryPack => Q,
    table: BenchTable => T,
    score: (Q, T) => Double
)

object Scorer {

  /** FCM (any variant via `cfg`). */
  def fcm(cfg: FcmConfig): Scorer[ChartEmb, TableEmb] = Scorer(
    q => ChartEncoder.encode(q.extracted, cfg),
    t => DatasetEncoder.encodeTable(t.id, t.cols, cfg),
    (chart, emb) => Matcher.score(chart, emb, cfg)
  )

  /** CML baseline: global embeddings + cosine. */
  val cml: Scorer[Array[Double], Array[Double]] =
    Scorer(_.cmlVec, t => Cml.tableVec(t.cols), Cml.score)

  /** Qetch* baseline: local sketch matching + bipartite aggregation. */
  val qetch: Scorer[Array[Array[Double]], Array[Array[Array[Double]]]] = Scorer(
    _.extractedLines.map(Qetch.slopeProfile),
    _.cols.map(Qetch.columnProfiles),
    Qetch.scoreProfiles
  )

  /** DE-LN baseline: DeepEye recommends 5 charts per table, LineNet ranks. */
  def deln(chartW: Int, chartH: Int): Scorer[Array[Double], Array[Array[Double]]] =
    Scorer(_.lineNetVec, t => DeLn.candidateVecs(t.cols, chartW, chartH), DeLn.score)

  /** Opt-LN upper bound: LineNet on the chart from the associated spec. */
  def optLn(chartW: Int, chartH: Int): Scorer[Array[Double], Array[Double]] =
    Scorer(_.lineNetVec, t => DeLn.optVec(t.cols, t.specCols, chartW, chartH), LineNet.sim)

  /** Ground-truth `Rel(D, T)` (banded DTW + bipartite matching). */
  val gt: Scorer[Array[Array[Double]], Array[Array[Double]]] =
    Scorer(_.underlyingPrepared, _.cols.map(Relevance.prep), Relevance.relPrepared)
}

/** Distributed scan + similarity-match dataflow (DESIGN.md §3).
  *
  * The repository is a cached `Dataset[BenchTable]`; every retrieval method
  * is one `mapPartitions` job over its RDD that encodes each table inside
  * the executors and scores it against the broadcast query representations,
  * emitting `(qid, tid, score)` rows that are collected and ranked per
  * query. Index strategies restrict a pass through a broadcast candidate
  * map.
  *
  * A `Dataset`'s `rdd` is built once and memoised, so the plan analysis,
  * optimisation and deserializer codegen are paid by the first pass over a
  * given `Dataset` instance only. That first `.rdd` also fixes the plan, so
  * a repository `Dataset` must be persisted before its first pass: one
  * persisted later is still recomputed from its source on every pass.
  */
object Engine {

  /** Run one scoring pass; returns per-query rankings (best first, ties by
    * table id) and the wall-clock milliseconds of the distributed job.
    */
  def pass(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      f: BenchTable => Iterator[Scored]
  ): (Map[Int, Array[Long]], Long) = {
    val t0   = System.nanoTime()
    val rows = tables.rdd.mapPartitions(_.flatMap(f)).collect()
    val ms   = (System.nanoTime() - t0) / 1000000L
    val ranked = rows
      .groupBy(_.qid)
      .map { case (q, arr) =>
        q -> arr.sortBy(s => (-s.score, s.tid)).map(_.tid)
      }
    (ranked, ms)
  }

  /** Rank the repository for every query with `scorer`. A query listed in
    * `restrict` is scored only against its candidate tables; a table no
    * query wants is not encoded.
    */
  def rank[Q, T](
      spark: SparkSession,
      tables: Dataset[BenchTable],
      queries: Array[QueryPack],
      scorer: Scorer[Q, T],
      restrict: Map[Int, Set[Long]] = Map.empty
  ): (Map[Int, Array[Long]], Long) = {
    val bq = spark.sparkContext.broadcast(queries.map(q => (q.qid, scorer.query(q))))
    val br = spark.sparkContext.broadcast(restrict)
    pass(
      spark,
      tables,
      t => {
        val wanted = bq.value.filter { case (qid, _) =>
          br.value.get(qid).forall(_.contains(t.id))
        }
        if (wanted.isEmpty) Iterator.empty
        else {
          val enc = scorer.table(t)
          wanted.iterator.map { case (qid, q) => Scored(qid, t.id, scorer.score(q, enc)) }
        }
      }
    )
  }

  /** FCM (any variant via `cfg`). */
  def fcmRank(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      queries: Array[QueryPack],
      cfg: FcmConfig,
      restrict: Map[Int, Set[Long]] = Map.empty
  ): (Map[Int, Array[Long]], Long) =
    rank(spark, tables, queries, Scorer.fcm(cfg), restrict)
}
