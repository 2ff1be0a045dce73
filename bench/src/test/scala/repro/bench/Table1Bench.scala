package repro.bench

import repro.SparkSpec

/** Table I — statistical properties of the benchmark. */
class Table1Bench extends SparkSpec {

  test("Table I: benchmark statistics") {
    val e = BenchCtx.full
    BenchCtx.banner("Table I: statistical properties of the benchmark (paper: 200 queries / 10,161 tables)")
    val rows = e.tableI()
    println(e.renderTableI(rows))
    val t = rows.toMap
    assert(t("Query").values.sum == e.bench.queries.length)
    assert(t("Repository").values.sum == e.bench.repo.length)
    // every bucket is populated, as in the paper's Table I
    BenchData.mBuckets.foreach { b =>
      assert(t("Query")(b) > 0, s"query bucket $b")
      assert(t("Repository")(b) > 0, s"repository bucket $b")
    }
  }
}
