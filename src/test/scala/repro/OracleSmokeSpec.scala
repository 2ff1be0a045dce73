package repro

import org.apache.spark.sql.functions._

/** Sanity checks of the DuckDB oracle against Spark SQL over the TPC-H-lite
  * `lineitem` generator — catches canonicalisation drift early.
  */
class OracleSmokeSpec extends SparkSpec {

  private lazy val lineitem = SynthData.lineitem(spark, 0.0005)

  test("lineitem counts by return flag and line status match DuckDB") {
    val df = lineitem
      .groupBy(col("l_returnflag"), col("l_linestatus"))
      .agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(
      df,
      """SELECT l_returnflag, l_linestatus, COUNT(*) AS n
        |FROM lineitem GROUP BY l_returnflag, l_linestatus""".stripMargin,
      "lineitem" -> lineitem
    )
  }

  test("lineitem price extremes by line number match DuckDB") {
    val df = lineitem
      .groupBy(col("l_linenumber"))
      .agg(min(col("l_extendedprice")).as("lo"), max(col("l_extendedprice")).as("hi"))
    Oracle.assertEquivalent(
      df,
      """SELECT CAST(l_linenumber AS INTEGER) AS l_linenumber,
        |       MIN(CAST(l_extendedprice AS DOUBLE)) AS lo,
        |       MAX(CAST(l_extendedprice AS DOUBLE)) AS hi
        |FROM lineitem GROUP BY CAST(l_linenumber AS INTEGER)""".stripMargin,
      "lineitem" -> lineitem
    )
  }

  test("filtered join cardinality matches DuckDB") {
    val a = lineitem.as("a")
    val b = lineitem.as("b")
    val df = a
      .join(b, col("a.l_orderkey") === col("b.l_orderkey") && col("a.l_linenumber") < col("b.l_linenumber"))
      .where(col("a.l_returnflag") === "R")
      .agg(count(lit(1)).cast("long").as("n"))
    Oracle.assertEquivalent(
      df,
      """SELECT COUNT(*) AS n
        |FROM lineitem a JOIN lineitem b
        |  ON CAST(a.l_orderkey AS BIGINT) = CAST(b.l_orderkey AS BIGINT)
        | AND CAST(a.l_linenumber AS INTEGER) < CAST(b.l_linenumber AS INTEGER)
        |WHERE a.l_returnflag = 'R'""".stripMargin,
      "lineitem" -> lineitem
    )
  }
}
