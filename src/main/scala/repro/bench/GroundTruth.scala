package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}

/** Ground-truth construction (paper Sec. VII-A): for every query, the
  * top-k repository tables by `Rel(D, T)` form the relevant set. Computed
  * by `Engine.rank` with the DTW + bipartite-matching `Scorer.gt`.
  */
object GroundTruth {

  /** Relevant table ids (ordered, best first) per query id. */
  def topK(
      spark: SparkSession,
      tables: Dataset[BenchTable],
      queries: Array[QueryPack],
      k: Int
  ): Map[Int, Array[Long]] =
    Engine.rank(spark, tables, queries, Scorer.gt)._1.map { case (qid, ranked) => qid -> ranked.take(k) }
}
