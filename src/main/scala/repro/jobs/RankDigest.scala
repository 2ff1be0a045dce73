package repro.jobs

import repro.bench.BenchConfig

/** Prints `repro.bench.RankDigest.digest` of the experiment at one scale.
  *
  * Usage: sbt "runMain repro.jobs.RankDigest [unit|small|bench]"
  * (default: small).
  */
object RankDigest {

  def main(args: Array[String]): Unit = {
    val e      = Jobs.experiment(Jobs.scale(args, BenchConfig.small))
    val digest = repro.bench.RankDigest.digest(e)
    println(s"RankDigest ${args.headOption.getOrElse("small")}: ${e.bench.queries.length} queries, ${e.bench.repo.length} tables")
    println(digest)
  }
}
