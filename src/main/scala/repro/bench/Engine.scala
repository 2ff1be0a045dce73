package repro.bench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.baselines.{Cml, DeLn, LineNet, Qetch}
import repro.core._

import scala.collection.mutable

/** One scored (query, table) pair emitted by a distributed scoring pass. */
final case class Scored(qid: Int, tid: Long, score: Double)

/** One retrieval method as the three steps of a scoring pass: `query`
  * prepares a query on the driver (the result is broadcast), `table`
  * encodes one repository table inside the executors, and `score` scores
  * one (query, table) pair. Scorers capture only plain values, so they
  * serialise into the pass's closure.
  *
  * `encoding` names what `table` computes: two scorers with equal
  * encodings must encode every table identically, because `Engine.rank`
  * encodes a repository once per encoding and shares the result.
  */
final case class Scorer[Q, T](
    encoding: String,
    query: QueryPack => Q,
    table: BenchTable => T,
    score: (Q, T) => Double
)

object Scorer {

  /** FCM (any variant via `cfg`); its encoding is `cfg.encodingKey`. */
  def fcm(cfg: FcmConfig): Scorer[ChartEmb, TableEmb] = Scorer(
    cfg.encodingKey,
    q => ChartEncoder.encode(q.extracted, cfg),
    t => DatasetEncoder.encodeTable(t.id, t.cols, cfg),
    (chart, emb) => Matcher.score(chart, emb, cfg)
  )

  /** CML baseline: global embeddings + cosine. */
  val cml: Scorer[Array[Double], Array[Double]] =
    Scorer("cml", _.cmlVec, t => Cml.tableVec(t.cols), Cml.score)

  /** Qetch* baseline: local sketch matching + bipartite aggregation. */
  val qetch: Scorer[Array[Array[Double]], Array[Array[Array[Double]]]] = Scorer(
    "qetch",
    _.extractedLines.map(Qetch.slopeProfile),
    _.cols.map(Qetch.columnProfiles),
    Qetch.scoreProfiles
  )

  /** DE-LN baseline: DeepEye recommends 5 charts per table, LineNet ranks. */
  def deln(chartW: Int, chartH: Int): Scorer[Array[Double], Array[Array[Double]]] =
    Scorer(s"deln(${chartW}x$chartH)", _.lineNetVec, t => DeLn.candidateVecs(t.cols, chartW, chartH), DeLn.score)

  /** Opt-LN upper bound: LineNet on the chart from the associated spec. */
  def optLn(chartW: Int, chartH: Int): Scorer[Array[Double], Array[Double]] =
    Scorer(s"optLn(${chartW}x$chartH)", _.lineNetVec, t => DeLn.optVec(t.cols, t.specCols, chartW, chartH), LineNet.sim)

  /** Ground-truth `Rel(D, T)` (banded DTW + bipartite matching). */
  val gt: Scorer[Array[Array[Double]], Array[Array[Double]]] =
    Scorer("gt", _.underlyingPrepared, _.cols.map(Relevance.prep), Relevance.relPrepared)
}

/** Distributed scan + similarity-match dataflow (DESIGN.md §3).
  *
  * The repository is a cached `Dataset[BenchTable]`; every retrieval method
  * is one RDD job that scores each encoded table against the broadcast
  * query representations, emitting `(qid, tid, score)` rows that are
  * collected and ranked per query. Index strategies restrict a pass through
  * a broadcast candidate map.
  *
  * The dataset side runs once, as the paper's offline index does: the first
  * `rank` over a persisted repository `Dataset` instance with a given
  * `Scorer.encoding` encodes every table into a persisted RDD, and later
  * passes with that encoding read it. The memo holds each `Dataset` weakly,
  * by identity: a `Dataset` is immutable, so its encodings never go stale.
  * They are unpersisted by the first `rank` after the `Dataset` itself is
  * unpersisted, or by Spark's context cleaner once it is unreachable. A
  * `Dataset` that is not persisted is encoded again by every pass.
  *
  * A `Dataset`'s `rdd` is built once and memoised, so the plan analysis,
  * optimisation and deserializer codegen are paid by the first pass over a
  * given `Dataset` instance only. That first `.rdd` also fixes the plan, so
  * a repository `Dataset` must be persisted before its first pass: one
  * persisted later is still recomputed from its source on every pass.
  */
object Engine {

  /** Run `f` over every table of `tables` in one job; returns per-query
    * rankings (best first, ties by table id) and the wall-clock
    * milliseconds of the job. `rank` does not take this path: it scores
    * encoded tables. This stays for `perfbench/`, whose overhead probe
    * (`bench.pass_overhead_ms`) times a no-op `f` through it.
    */
  def pass(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      f: BenchTable => Iterator[Scored]
  ): (Map[Int, Array[Long]], Long) =
    collectRanked(tables.rdd.mapPartitions(_.flatMap(f)))

  private def collectRanked(scored: RDD[Scored]): (Map[Int, Array[Long]], Long) = {
    val t0   = System.nanoTime()
    val rows = scored.collect()
    val ms   = (System.nanoTime() - t0) / 1000000L
    val ranked = rows
      .groupBy(_.qid)
      .map { case (q, arr) =>
        q -> arr.sortBy(s => (-s.score, s.tid)).map(_.tid)
      }
    (ranked, ms)
  }

  /** Encoded repositories: persisted repository `Dataset` (weak, by
    * identity) → `Scorer.encoding` → `(table id, encoded table)`.
    */
  private val encoded = new java.util.WeakHashMap[Dataset[BenchTable], mutable.Map[String, RDD[(Long, Any)]]]

  /** `tables` encoded with `scorer.table`: memoised and persisted while
    * `tables` is persisted, recomputed by every pass otherwise. The
    * encodings of a `Dataset` that has been unpersisted are released.
    */
  private def encodedTables[T](tables: Dataset[BenchTable], scorer: Scorer[_, T]): RDD[(Long, T)] = {
    val table  = scorer.table
    def encode = tables.rdd.map(t => (t.id, table(t): Any))
    encoded.synchronized {
      encoded.entrySet.removeIf { e =>
        val released = e.getKey.storageLevel == StorageLevel.NONE
        if (released) e.getValue.values.foreach(_.unpersist(blocking = false))
        released
      }
      if (tables.storageLevel == StorageLevel.NONE) encode
      else
        encoded
          .computeIfAbsent(tables, _ => mutable.HashMap.empty)
          .getOrElseUpdate(
            scorer.encoding,
            encode.setName(s"encoded repository: ${scorer.encoding}").persist(StorageLevel.MEMORY_ONLY)
          )
    }.asInstanceOf[RDD[(Long, T)]]
  }

  /** Rank the repository for every query with `scorer`. A query listed in
    * `restrict` is scored only against its candidate tables. The first pass
    * over `tables` with the scorer's encoding encodes every table; later
    * passes reuse those encodings while `tables` stays persisted.
    */
  def rank[Q, T](
      spark: SparkSession,
      tables: Dataset[BenchTable],
      queries: Array[QueryPack],
      scorer: Scorer[Q, T],
      restrict: Map[Int, Set[Long]] = Map.empty
  ): (Map[Int, Array[Long]], Long) = {
    val bq    = spark.sparkContext.broadcast(queries.map(q => (q.qid, scorer.query(q))))
    val br    = spark.sparkContext.broadcast(restrict)
    val score = scorer.score
    collectRanked(encodedTables(tables, scorer).flatMap { case (tid, enc) =>
      bq.value.iterator.collect {
        case (qid, q) if br.value.get(qid).forall(_.contains(tid)) => Scored(qid, tid, score(q, enc))
      }
    })
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
