package repro.bench

import repro.SparkSpec

/** Table VII — impact of the segment sizes P1 (line) and P2 (data).
  * Paper: prec@50 peaks at moderate sizes (P1=60, P2=64 → .454) and falls
  * off at both extremes. Run at reduced scale: 25 configs, each with its
  * own retrained head (DESIGN.md §5).
  */
class Table7Bench extends SparkSpec {

  test("Table VII: the impact of different P1 and P2") {
    val e = BenchCtx.small
    BenchCtx.banner("Table VII: P1 x P2 sweep (prec@%d, reduced scale)".format(e.cfg.k))
    val grid = e.tableVII()
    println(e.renderTableVII(grid))
    assert(grid.size == 25)
    grid.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
    // shape: the default configuration is competitive with the grid's best
    val default = grid((60, 64))
    assert(default >= grid.values.max - 0.12, s"default $default vs best ${grid.values.max}")
  }
}
