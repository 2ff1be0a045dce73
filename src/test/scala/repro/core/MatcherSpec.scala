package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck.{check, column, line}
import repro.vis.{AggOp, Extractor, Raster}

import scala.util.Random

class MatcherSpec extends AnyFunSuite {

  private val cfg = FcmConfig()

  private def walk(n: Int, seed: Int): Array[Double] = {
    val r = new Random(seed + 100)
    var x = 0.0
    Array.fill(n) { x += r.nextGaussian(); x }
  }

  private def chartOf(series: Array[Array[Double]], c: FcmConfig = cfg): ChartEmb = {
    val img = Raster.render(series, 480, 240)
    ChartEncoder.encode(Extractor.extract(img), c)
  }

  /** A column built alone, as the one column of its table. */
  private def lone(c: ColumnExperts): ColumnEmb = TableEmb(0L, Array(c)).cols(0)

  /** A column of 4 rows with the given raw stats and no segments. */
  private def statsOnly(min: Double, max: Double, sum: Double): ColumnEmb =
    lone(ColumnExperts(0, 4, min, max, sum, Array(DaVariant(0, 0, Array.empty, Array.empty))))

  test("pairFeatures: matching series scores much higher than unrelated") {
    val s = walk(512, 1)
    val chart = chartOf(Array(s))
    val line  = chart.lines(0)
    val same  = DatasetEncoder.encodeColumn(0, s, cfg)
    val other = DatasetEncoder.encodeColumn(0, walk(512, 2), cfg)
    val fSame  = Matcher.pairFeatures(line.segs, line.pos, same.segs, same.pos, cfg)
    val fOther = Matcher.pairFeatures(line.segs, line.pos, other.segs, other.pos, cfg)
    assert(Matcher.preScore(fSame) > Matcher.preScore(fOther) + 0.1)
  }

  test("pairFeatures values are in [0, 1]") {
    val chart = chartOf(Array(walk(256, 3)))
    val col   = DatasetEncoder.encodeColumn(0, walk(256, 4), cfg)
    val f = Matcher.pairFeatures(chart.lines(0).segs, chart.lines(0).pos, col.segs, col.pos, cfg)
    assert(f.length == Matcher.PairFeatDim)
    f.foreach(v => assert(v >= 0.0 && v <= 1.0 + 1e-9))
  }

  test("pairFeatures with empty sides is all zero") {
    val f = Matcher.pairFeatures(Array.empty, Array.empty, Array.empty, Array.empty, cfg)
    assert(f.forall(_ == 0.0))
  }

  test("MoE gate infers aggregation for an avg-aggregated chart") {
    // A noisy series: aggregation genuinely smooths it, so the aggregated
    // chart is far from the raw column's z-shape. (For a pure random walk
    // smoothing is a near-no-op and identity is a legitimate answer.)
    val r = new Random(55)
    val col = Array.tabulate(1024)(i => math.sin(i / 60.0) * 3 + r.nextGaussian())
    val d   = AggOp.aggregate(col, AggOp.Avg, 32)
    val chart = chartOf(Array(d))
    val emb = DatasetEncoder.encodeColumn(0, col, cfg)
    val (_, op) = Matcher.daPairFeatures(chart.lines(0), emb, cfg)
    // an aggregation expert (not identity) must win; with symmetric noise
    // avg/sum/max/min z-shapes are near-equivalent, so any operator counts
    assert(op != 0)
  }

  test("MoE gate prefers identity for a non-aggregated chart") {
    val col = walk(1024, 6)
    val chart = chartOf(Array(col))
    val emb = DatasetEncoder.encodeColumn(0, col, cfg)
    val (_, op) = Matcher.daPairFeatures(chart.lines(0), emb, cfg)
    assert(op == 0)
  }

  test("daPairFeatures beats identity-only matching on aggregated charts") {
    val col = walk(1024, 7)
    val d   = AggOp.aggregate(col, AggOp.Avg, 32)
    val chart = chartOf(Array(d))
    val embDa = DatasetEncoder.encodeColumn(0, col, cfg)
    val (fDa, _) = Matcher.daPairFeatures(chart.lines(0), embDa, cfg)
    val fId = Matcher.pairFeatures(chart.lines(0).segs, chart.lines(0).pos, embDa.segs, embDa.pos, cfg)
    assert(Matcher.preScore(fDa) > Matcher.preScore(fId))
  }

  test("rangeOverlap: containment, disjoint and DA sum-extension") {
    val chart = ChartEmb(Array.empty, 0.0, 10.0)
    val within   = statsOnly(2.0, 8.0, 20.0)
    val disjoint = statsOnly(100.0, 200.0, 600.0)
    assert(Matcher.rangeOverlap(chart, within, useDa = false) == 0.6)
    assert(Matcher.rangeOverlap(chart, disjoint, useDa = false) == 0.0)
    // sum reaches down into the chart range when aggregation is considered
    val sumReaches = statsOnly(100.0, 200.0, 5.0)
    assert(Matcher.rangeOverlap(chart, sumReaches, useDa = true) > 0.0)
  }

  test("tableFeatures has the right arity and bounded values") {
    val t = DatasetEncoder.encodeTable(1L, Array(walk(256, 8), walk(256, 9)), cfg)
    val chart = chartOf(Array(walk(256, 8)))
    val x = Matcher.tableFeatures(chart, t, cfg)
    assert(x.length == 6)
    x.foreach(v => assert(v >= 0.0 && v <= 1.0 + 1e-9))
  }

  test("score of the source table exceeds an unrelated table") {
    val cols = Array(walk(512, 10), walk(512, 11))
    val chart = chartOf(Array(cols(0)))
    val self  = DatasetEncoder.encodeTable(1L, cols, cfg)
    val other = DatasetEncoder.encodeTable(2L, Array(walk(512, 12), walk(512, 13)), cfg)
    assert(Matcher.score(chart, self, cfg) > Matcher.score(chart, other, cfg))
  }

  test("multi-line chart matches distinct columns via LL-SAN assignment") {
    val a = walk(256, 14)
    val b = walk(256, 15).map(_ + 50)
    val chart = chartOf(Array(a, b))
    val self = DatasetEncoder.encodeTable(1L, Array(a, b), cfg)
    val x = Matcher.tableFeatures(chart, self, cfg)
    assert(x(4) == 1.0) // both lines confidently matched (b5)
  }

  test("hcmanOffFeatures: 3 dims, self-match beats unrelated") {
    val offCfg = cfg.copy(useHcman = false)
    val s = walk(512, 16)
    val chart = chartOf(Array(s), offCfg)
    val self  = DatasetEncoder.encodeTable(1L, Array(s), offCfg)
    val other = DatasetEncoder.encodeTable(2L, Array(walk(512, 17)), offCfg)
    val xs = Matcher.hcmanOffFeatures(chart, self, offCfg)
    val xo = Matcher.hcmanOffFeatures(chart, other, offCfg)
    assert(xs.length == 3 && xo.length == 3)
    assert(Matcher.score(chart, self, offCfg) > Matcher.score(chart, other, offCfg))
  }

  test("scores are valid probabilities") {
    val chart = chartOf(Array(walk(128, 18)))
    val t = DatasetEncoder.encodeTable(1L, Array(walk(128, 19)), cfg)
    val s = Matcher.score(chart, t, cfg)
    assert(s > 0.0 && s < 1.0)
  }

  test("score is exactly 0 for a chart without lines, with DA on, DA off and HCMAN off") {
    val noLines = ChartEmb(Array.empty, 0.0, 10.0)
    Seq(cfg, cfg.copy(useDa = false), cfg.copy(useHcman = false)).foreach { c =>
      val t = DatasetEncoder.encodeTable(1L, Array(walk(256, 20), walk(256, 21)), c)
      assert(Matcher.score(noLines, t, c) == 0.0, c)
    }
  }

  test("score is exactly 0 for a table without rows, with DA on, DA off and HCMAN off") {
    Seq(cfg, cfg.copy(useDa = false), cfg.copy(useHcman = false)).foreach { c =>
      val chart = chartOf(Array(walk(256, 22)), c)
      val emptyCols = DatasetEncoder.encodeTable(1L, Array(Array.empty[Double], Array.empty[Double]), c)
      val noCols    = DatasetEncoder.encodeTable(2L, Array.empty, c)
      assert(Matcher.score(chart, emptyCols, c) == 0.0, c)
      assert(Matcher.score(chart, noCols, c) == 0.0, c)
      // a single non-empty column is enough for a regular score
      val oneCol = DatasetEncoder.encodeTable(3L, Array(Array.empty[Double], walk(256, 22)), c)
      assert(Matcher.score(chart, oneCol, c) > 0.0, c)
    }
  }

  test("score is finite and in [0, 1] on tables with non-finite cells, empty and constant columns, DA and HCMAN on and off (scalacheck)") {
    val gen = for {
      tid   <- Gen.choose(0L, 1000L)
      cols  <- Gen.choose(0, 4).flatMap(Gen.listOfN(_, column(300)))
      lines <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, line(300)))
      yLo   <- Gen.choose(-10.0, 10.0)
      span  <- Gen.choose(0.0, 20.0)
    } yield (tid, cols.toArray, lines.toArray, yLo, span)
    for (da <- Seq(true, false); hcman <- Seq(true, false)) {
      val c = cfg.copy(useDa = da, useHcman = hcman)
      check(Prop.forAllNoShrink(gen) { case (tid, cols, lines, yLo, span) =>
        val chart = ChartEmb(lines.map(ChartEncoder.encodeLine(_, c)), yLo, yLo + span)
        val s     = Matcher.score(chart, DatasetEncoder.encodeTable(tid, cols, c), c)
        java.lang.Double.isFinite(s) && s >= 0.0 && s <= 1.0
      }, 50)
    }
  }

  test("non-finite cells are left out: the score is finite and equals the table without them") {
    val clean = Array(walk(300, 23), walk(260, 24))
    val dirty = Array(
      clean(0).patch(5, Seq(Double.NaN), 0).patch(100, Seq(Double.PositiveInfinity), 0) :+ Double.NegativeInfinity,
      Double.NaN +: clean(1).patch(130, Seq(Double.NaN, Double.NegativeInfinity), 0)
    )
    val allNonFinite = Array(Array(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
    Seq(cfg, cfg.copy(useDa = false), cfg.copy(useHcman = false)).foreach { c =>
      val chart = chartOf(Array(clean(0)), c)
      val s     = Matcher.score(chart, DatasetEncoder.encodeTable(1L, dirty, c), c)
      assert(java.lang.Double.isFinite(s), c)
      assert(bits(Array(s)) == bits(Array(Matcher.score(chart, DatasetEncoder.encodeTable(1L, clean, c), c))), c)
      // a column without a finite cell is an empty column
      assert(Matcher.score(chart, DatasetEncoder.encodeTable(2L, allNonFinite, c), c) == 0.0, c)
    }
  }

  test("large finite cells give a finite score and a finite Rel, with DA on and off") {
    val xs = walk(512, 25)
    Seq(1e300, 1e305, -1e305, Double.MaxValue / xs.map(math.abs).max).foreach { m =>
      val cols = Array(xs.map(_ * m), walk(300, 26))
      Seq(cfg, cfg.copy(useDa = false), cfg.copy(useHcman = false)).foreach { c =>
        val s = Matcher.score(chartOf(Array(xs), c), DatasetEncoder.encodeTable(1L, cols, c), c)
        assert(java.lang.Double.isFinite(s) && s >= 0.0 && s < 1.0, (m, c))
      }
      // the scaled column keeps the chart's shape (mirrored when m < 0)
      val rel = Relevance.rel(Array(xs, xs.map(-_)), cols)
      assert(java.lang.Double.isFinite(rel) && rel > 0.5, m)
    }
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private val segsGen: Gen[(Array[Array[Double]], Array[Double])] = for {
    n   <- Gen.choose(1, 12)
    vs  <- Gen.listOfN(n * Features.Dim, Gen.choose(-3.0, 3.0))
    pos <- Gen.listOfN(n, Gen.choose(0.0, 1.0))
  } yield (vs.toArray.grouped(Features.Dim).toArray, pos.toArray)

  /** A line and a column whose segments are random, or (one case in three)
    * identical, so that every segment distance is exactly 0.
    */
  private val pairGen = for {
    line <- segsGen
    same <- Gen.choose(0, 2).map(_ == 0)
    col  <- if (same) Gen.const((line._1.map(_.clone), line._2.clone)) else segsGen
  } yield (line, col)

  test("pairFeatures equals the reference kernel bit for bit (scalacheck)") {
    check(Prop.forAllNoShrink(pairGen) { case ((lSegs, lPos), (cSegs, cPos)) =>
      bits(Matcher.pairFeatures(lSegs, lPos, cSegs, cPos, cfg)) ==
        bits(Reference.pairFeatures(lSegs, lPos, cSegs, cPos, cfg))
    }, 60)
  }

  test("daPairFeatures equals the reference MoE bit for bit (scalacheck)") {
    val gen = for {
      ((lSegs, lPos), (cSegs, cPos)) <- pairGen
      nVar <- Gen.choose(0, 6)
      vars <- Gen.listOfN(nVar, segsGen)
      ops  <- Gen.listOfN(nVar, Gen.choose(1, 4))
      // sometimes a variant repeats the line, so an aggregation expert wins
      hit  <- Gen.choose(-1, nVar - 1)
    } yield {
      val variants = vars.zip(ops).zipWithIndex.map { case (((s, p), op), i) =>
        if (i == hit) DaVariant(op, 4, lSegs.map(_.clone), lPos.clone) else DaVariant(op, 4, s, p)
      }
      (LineEmb(lSegs, lPos, Features.pool(lSegs)),
       lone(ColumnExperts(0, 64, 0.0, 1.0, 1.0, DaVariant(0, 0, cSegs, cPos) +: variants.toArray)))
    }
    var aggWins = 0
    Seq(cfg, cfg.copy(useDa = false)).foreach { c =>
      check(Prop.forAllNoShrink(gen) { case (line, col) =>
        val (f, op)       = Matcher.daPairFeatures(line, col, c)
        val (fRef, opRef) = Reference.daPairFeatures(line, col, c)
        if (op != 0) aggWins += 1
        bits(f) == bits(fRef) && op == opRef
      }, 60)
    }
    assert(aggWins > 0)
  }

  test("score on encoded random tables equals the reference bit for bit (scalacheck)") {
    val gen = for {
      seed  <- Gen.choose(0, 100000)
      nCols <- Gen.choose(1, 4)
      nRows <- Gen.choose(16, 400)
      m     <- Gen.choose(1, 3)
    } yield {
      val r    = new Random(seed)
      val cols = Array.fill(nCols) { var x = 0.0; Array.fill(nRows) { x += r.nextGaussian(); x } }
      // lines are a column, an aggregated column or an unrelated walk
      val lines = Array.tabulate(m) { i =>
        val src = cols(i % nCols)
        r.nextInt(3) match {
          case 0 => src.clone
          case 1 => AggOp.aggregate(src, AggOp.all(r.nextInt(4)), 4)
          case _ => var x = 0.0; Array.fill(60 + r.nextInt(300)) { x += r.nextGaussian(); x }
        }
      }
      (seed.toLong, cols, lines)
    }
    Seq(cfg, cfg.copy(useDa = false), cfg.copy(useHcman = false)).foreach { c =>
      check(Prop.forAllNoShrink(gen) { case (tid, cols, lines) =>
        val chart = ChartEmb(lines.map(ChartEncoder.encodeLine(_, c)), -10.0, 10.0)
        val tab   = DatasetEncoder.encodeTable(tid, cols, c)
        Matcher.score(chart, tab, c) == Reference.score(chart, tab, c)
      }, 60)
    }
  }

  test("dropping repeated DA views keeps daPairFeatures and score bit-identical to all 20 variants (scalacheck)") {
    // columns of every kind the repeat test must get right: random walks,
    // constant and near-constant columns (sd near 1e-12 * w, where the avg
    // view is flat but the sum view is not), subnormal magnitudes (avg
    // rounds, so sum is no longer avg scaled) and near-overflow magnitudes
    val colGen = for {
      seed  <- Gen.choose(0, 100000)
      nRows <- Gen.choose(16, 700)
      kind  <- Gen.choose(0, 5)
    } yield {
      val r    = new Random(seed)
      val walk = { var x = 0.0; Array.fill(nRows) { x += r.nextGaussian(); x } }
      kind match {
        case 0 => walk
        case 1 => Array.fill(nRows)(r.nextGaussian() * 100)
        case 2 => Array.fill(nRows)(walk(0))
        case 3 => Array.tabulate(nRows)(i => 3.0 + walk(i) * math.pow(2.0, -42 - r.nextInt(8)))
        case 4 => walk.map(_ * 1e-312)
        case _ => walk.map(_ * math.pow(10.0, 290 + r.nextInt(16)))
      }
    }
    val gen = for {
      cols <- Gen.listOfN(2, colGen)
      m    <- Gen.choose(1, 3)
      ws   <- Gen.listOfN(m, Gen.oneOf(1, 4, 8, 16, 32))
      ops  <- Gen.listOfN(m, Gen.choose(0, 3))
    } yield {
      val lines = ws.zip(ops).zipWithIndex.map { case ((w, op), i) =>
        val src = cols(i % 2)
        if (w == 1 || src.length < 4 * w) src else AggOp.aggregate(src, AggOp.all(op), w)
      }
      (cols.toArray, lines.toArray)
    }
    var dropped = 0
    var sumKept = 0
    check(Prop.forAllNoShrink(gen) { case (cols, lines) =>
      val chart = ChartEmb(lines.map(ChartEncoder.encodeLine(_, cfg)), -10.0, 10.0)
      val tab   = DatasetEncoder.encodeTable(7L, cols, cfg)
      val ref   = Reference.encodeTable(7L, cols, cfg)
      dropped += ref.cols.map(_.variants.length).sum - tab.cols.map(_.variants.length).sum
      sumKept += tab.cols.map(_.variants.count(_.op == AggOp.Sum.id)).sum
      val pairs = for (line <- chart.lines; c <- tab.cols.indices) yield {
        val (f, op)       = Matcher.daPairFeatures(line, tab.cols(c), cfg)
        val (fRef, opRef) = Matcher.daPairFeatures(line, ref.cols(c), cfg)
        bits(f) == bits(fRef) && op == opRef
      }
      pairs.forall(identity) &&
        bits(Array(Matcher.score(chart, tab, cfg))) == bits(Array(Matcher.score(chart, ref, cfg)))
    }, 80)
    assert(dropped > 0 && sumKept > 0, s"dropped $dropped, sum kept $sumKept")
  }

  /** `n` random segments. */
  private def segsOf(n: Int): Gen[(Array[Array[Double]], Array[Double])] = for {
    vs  <- Gen.listOfN(n * Features.Dim, Gen.choose(-3.0, 3.0))
    pos <- Gen.listOfN(n, Gen.choose(0.0, 1.0))
  } yield (vs.toArray.grouped(Features.Dim).toArray, pos.toArray)

  /** Segments of an expert built to stress the pre-score bound and the
    * distance pass: random; a copy of the line (every aligned distance is
    * 0, so similarities saturate at 1.0); one segment repeated at spread
    * positions (a row of equal distances and similarities, whose
    * attention-weighted mean may round above the row's best); no segments
    * at all; random segments of a count that is not a multiple of a vector
    * width; or near ties: before each copy of a line segment, at another
    * position, a copy whose feature 0 is 1e-17, which for a line segment
    * whose feature 0 is 0 is a distance above 0 with similarity 1.0, so the
    * row's first best similarity is not at its first smallest distance.
    */
  private def adversarialSegs(line: (Array[Array[Double]], Array[Double])) = for {
    kind  <- Gen.choose(0, 6)
    rnd   <- segsGen
    reps  <- Gen.choose(1, 12)
    odd   <- Gen.oneOf(0, 1, 3, 5, 7, 12).flatMap(segsOf)
    moved <- Gen.listOfN(line._2.length, Gen.choose(0.0, 1.0))
  } yield kind match {
    case 0 | 1 => rnd
    case 2     => (line._1.map(_.clone), line._2.clone)
    case 3     => (Array.fill(reps)(rnd._1(0).clone), Array.tabulate(reps)(i => (i + 0.5) / reps))
    case 4     => (Array.empty[Array[Double]], Array.empty[Double])
    case 5     => odd
    case _ =>
      val near = line._1.map { seg => val c = seg.clone; c(0) = 1e-17; c }
      (near.zip(line._1).flatMap { case (n, seg) => Array(n, seg.clone) },
       moved.toArray.zip(line._2).flatMap { case (m, p) => Array(m, p) })
  }

  /** A column whose experts are adversarial for the MoE's work skipping:
    * besides `adversarialSegs`, an expert may repeat an earlier expert
    * (its pre-score ties the running best) or the column itself (it ties
    * the identity expert, so it can never clear the gate).
    */
  private def adversarialColumn(line: (Array[Array[Double]], Array[Double])): Gen[ColumnExperts] = for {
    (cSegs, cPos) <- Gen.oneOf(segsGen, adversarialSegs(line).suchThat(_._1.nonEmpty))
    nVar  <- Gen.choose(0, 8)
    segs  <- Gen.listOfN(nVar, adversarialSegs(line))
    ops   <- Gen.listOfN(nVar, Gen.choose(1, 4))
    links <- Gen.listOfN(nVar, Gen.choose(-3, nVar))
  } yield {
    val variants = new Array[DaVariant](nVar)
    for (i <- 0 until nVar) {
      val (s, p) = links(i) match {
        case -1                   => (cSegs.map(_.clone), cPos.clone)
        case l if l >= 0 && l < i => (variants(l).segs.map(_.clone), variants(l).pos.clone)
        case _                    => segs(i)
      }
      variants(i) = DaVariant(ops(i), 4, s, p)
    }
    ColumnExperts(0, 64, 0.0, 1.0, 1.0, DaVariant(0, 0, cSegs, cPos) +: variants)
  }

  /** One to three lines (one segment, in one case in four) and one to three
    * adversarial columns.
    */
  private val adversarialGen: Gen[(Array[LineEmb], Array[ColumnExperts])] = adversarialTables(3)

  /** One to three lines (one segment, in one case in four; feature 0 of
    * every segment 0, in another) and one to `maxCols` adversarial columns.
    */
  private def adversarialTables(maxCols: Int): Gen[(Array[LineEmb], Array[ColumnExperts])] = for {
    m     <- Gen.choose(1, 3)
    lines <- Gen.listOfN(m, Gen.frequency(
               2 -> segsGen,
               1 -> segsGen.map { case (s, p) => (s.take(1), p.take(1)) },
               1 -> segsGen.map { case (s, p) => (s.map { seg => val c = seg.clone; c(0) = 0.0; c }, p) }))
    nCols <- Gen.choose(1, maxCols)
    cols  <- Gen.listOfN(nCols, adversarialColumn(lines.head))
  } yield (lines.map { case (s, p) => LineEmb(s, p, Features.pool(s)) }.toArray, cols.toArray)

  test("daPairFeatures and score equal the reference bit for bit on adversarial experts (scalacheck)") {
    var aggWins = 0
    check(Prop.forAllNoShrink(adversarialGen) { case (lines, experts) =>
      // each column alone in its own block, then all of them in one table
      val cols  = experts.map(lone)
      val pairs = for (line <- lines; col <- cols) yield {
        val (f, op)       = Matcher.daPairFeatures(line, col, cfg)
        val (fRef, opRef) = Reference.daPairFeatures(line, col, cfg)
        if (op != 0) aggWins += 1
        bits(f) == bits(fRef) && op == opRef
      }
      val chart = ChartEmb(lines, 0.0, 1.0)
      val tab   = TableEmb(1L, experts)
      pairs.forall(identity) &&
        bits(Array(Matcher.score(chart, tab, cfg))) == bits(Array(Reference.score(chart, tab, cfg)))
    }, 150)
    assert(aggWins > 0)
  }

  test("features, ops and score of tables of 1 to 17 adversarial columns equal the reference bit for bit (scalacheck)") {
    var aggWins = 0
    Seq(cfg, cfg.copy(useDa = false)).foreach { c =>
      check(Prop.forAllNoShrink(adversarialTables(17)) { case (lines, experts) =>
        // the columns' experts in one block that spans them all; the
        // reference reads each column from a block of its own
        val cols  = experts.map(lone)
        val tab   = TableEmb(1L, experts)
        val chart = ChartEmb(lines, 0.0, 1.0)
        val pairs = for (line <- lines; k <- cols.indices) yield {
          val (f, op)       = Matcher.daPairFeatures(line, tab.cols(k), c)
          val (fRef, opRef) = Reference.daPairFeatures(line, cols(k), c)
          if (op != 0) aggWins += 1
          bits(f) == bits(fRef) && op == opRef
        }
        pairs.forall(identity) &&
          bits(Matcher.features(chart, tab, c)) == bits(Reference.tableFeatures(chart, tab, c)) &&
          bits(Array(Matcher.score(chart, tab, c))) == bits(Array(Reference.score(chart, tab, c)))
      }, 80)
    }
    assert(aggWins > 0)
  }

  test("the SL-SAN pre-score bound holds, ties with the bar are skipped, and a lower bar runs the attention pass (scalacheck)") {
    val gen = for {
      line   <- Gen.oneOf(segsGen, segsGen.map { case (s, p) => (s.take(1), p.take(1)) })
      expert <- adversarialSegs(line).suchThat(_._1.nonEmpty)
    } yield (line, expert)
    var roundedAbove = 0
    check(Prop.forAllNoShrink(gen) { case ((lSegs, lPos), (cSegs, cPos)) =>
      val (lPool, cPool) = (Features.pool(lSegs), Features.pool(cSegs))
      def run(bar: Double) = Matcher.pairFeatures(lSegs, lPos, lPool, cSegs, cPos, cPool, bar)
      val full  = run(Double.NegativeInfinity)
      // the bound: preScore with bestMean (feature 1) raised by the slack in
      // place of softAlign (feature 0)
      val bound = Matcher.preScore(Array(full(1) * (1.0 + 1e-9), full(1), full(2), full(3), full(4)))
      if (full(0) > full(1)) roundedAbove += 1
      Matcher.preScore(full) <= bound &&
        run(bound) == null &&
        bits(run(math.nextDown(bound))) == bits(full) &&
        bits(full) == bits(Reference.pairFeatures(lSegs, lPos, cSegs, cPos, cfg))
    }, 300)
    // rows of equal similarities do round the attention-weighted mean above
    // the best match: the slack is needed
    assert(roundedAbove > 0)
  }

  test("a tiny-magnitude source table scores and relates like the unscaled table") {
    val xs    = walk(512, 27)
    val other = walk(300, 28)
    val unscaled = Array(xs, other)
    Seq(cfg, cfg.copy(useDa = false), cfg.copy(useHcman = false)).foreach { c =>
      // a y-range neither table reaches, so the range feature, which depends
      // on magnitude by design, reads 0 for both
      val chart = ChartEmb(Array(ChartEncoder.encodeLine(xs, c)), 1e6, 2e6)
      def score(t: Array[Array[Double]]) = Matcher.score(chart, DatasetEncoder.encodeTable(1L, t, c), c)
      val ref = score(unscaled)
      // an exact power of two (2^-50 ≈ 8.9e-16) keeps every bit
      assert(bits(Array(score(Array(xs.map(math.scalb(_, -50)), other)))) == bits(Array(ref)), c)
      assert(math.abs(score(Array(xs.map(_ * 1e-15), other)) - ref) < 1e-9, c)
    }
    val relRef = Relevance.rel(Array(xs), unscaled)
    assert(bits(Array(Relevance.rel(Array(xs), Array(xs.map(math.scalb(_, -50)), other)))) == bits(Array(relRef)))
    assert(math.abs(Relevance.rel(Array(xs), Array(xs.map(_ * 1e-15), other)) - relRef) < 1e-9)
  }

  test("sigmoid sanity") {
    assert(Matcher.sigmoid(0.0) == 0.5)
    assert(Matcher.sigmoid(100.0) > 0.999)
    assert(Matcher.sigmoid(-100.0) < 0.001)
  }
}

/** The dataset encoder before repeated DA views were dropped, and the
  * SL-SAN kernel, MoE gate, LL-SAN features and head exactly as they were
  * before the kernel was restructured for speed: a 2-D similarity
  * matrix, each attention logit computed twice, both sides' pooled vectors
  * recomputed on every call, `j % W.length` weight indexing, the bitmask DP
  * assignment (`DpMatching`), and the kernel bandwidth 0.35 and attention
  * temperature 6.0 written out. The restructured `Matcher` must reproduce it
  * bit for bit.
  */
private object Reference {

  /** The dataset encoder before repeated DA views were dropped: every
    * operator at every window, all cells encoded. Like `DatasetEncoder`, it
    * aggregates a column whose z-normalisation would overflow scaled by
    * `Features.overflowScale`, so both encoders see the same finite views.
    */
  def encodeColumn(colIdx: Int, column: Array[Double], cfg: FcmConfig): ColumnExperts = {
    val scale  = Features.overflowScale(column)
    val values = if (scale == 1.0) column else column.map(_ * scale)
    var mn = Double.PositiveInfinity
    var mx = Double.NegativeInfinity
    var sm = 0.0
    var i = 0
    while (i < column.length) {
      val v = column(i)
      if (v < mn) mn = v
      if (v > mx) mx = v
      sm += v
      i += 1
    }
    val z = Features.znorm(values)
    val (segs, pos) = Features.segmentAll(z, cfg.p2)
    val variants =
      for {
        op <- if (cfg.useDa) AggOp.all else Array.empty[AggOp]
        w  <- cfg.daWindows(values.length)
      } yield {
        val agg = AggOp.aggregate(values, op, w)
        val za  = Features.znorm(agg)
        val segLen = math.max(2, cfg.p2 / w)
        val (s, p) = Features.segmentAll(za, segLen)
        DaVariant(op.id, w, s, p)
      }
    ColumnExperts(colIdx, values.length, mn, mx, sm, DaVariant(0, 0, segs, pos) +: variants)
  }

  def encodeTable(tableId: Long, cols: Array[Array[Double]], cfg: FcmConfig): TableEmb =
    TableEmb(tableId, cols.zipWithIndex.map { case (c, i) => encodeColumn(i, c, cfg) })

  private val W: Array[Double] =
    Array(1.0, 0.8, 0.7, 0.7, 1.0, 0.9) ++ Array.fill(Features.ShapePts)(0.8)
  private val WSum: Double = W.sum

  def sim(a: Array[Double], b: Array[Double]): Double = {
    var d = 0.0
    var j = 0
    while (j < a.length) {
      val x = a(j) - b(j)
      d += W(j % W.length) * x * x
      j += 1
    }
    math.exp(-math.sqrt(d / WSum) / 0.35)
  }

  /** `Features.simRow`, the stage one of the kernel before the distance
    * pass, verbatim: `out(off + n) = sim(a, bs(n))`, four vectors of `bs`
    * at a time.
    */
  def simRow(a: Array[Double], bs: Array[Array[Double]], out: Array[Double], off: Int): Unit = {
    val nb = bs.length
    var n  = 0
    while (n + 4 <= nb) {
      val b0 = bs(n); val b1 = bs(n + 1); val b2 = bs(n + 2); val b3 = bs(n + 3)
      var d0 = 0.0; var d1 = 0.0; var d2 = 0.0; var d3 = 0.0
      var j = 0
      while (j < a.length) {
        val w  = W(j)
        val aj = a(j)
        val x0 = aj - b0(j); d0 += w * x0 * x0
        val x1 = aj - b1(j); d1 += w * x1 * x1
        val x2 = aj - b2(j); d2 += w * x2 * x2
        val x3 = aj - b3(j); d3 += w * x3 * x3
        j += 1
      }
      out(off + n) = simOfDist(d0)
      out(off + n + 1) = simOfDist(d1)
      out(off + n + 2) = simOfDist(d2)
      out(off + n + 3) = simOfDist(d3)
      n += 4
    }
    while (n < nb) { out(off + n) = sim(a, bs(n)); n += 1 }
  }

  private def simOfDist(d: Double): Double = math.exp(-math.sqrt(d / WSum) / 0.35)

  def pairFeatures(
      lSegs: Array[Array[Double]],
      lPos: Array[Double],
      cSegs: Array[Array[Double]],
      cPos: Array[Double],
      cfg: FcmConfig
  ): Array[Double] = {
    val nl = lSegs.length
    val nc = cSegs.length
    if (nl == 0 || nc == 0) return Array.fill(Matcher.PairFeatDim)(0.0)
    val s = Array.ofDim[Double](nl, nc)
    var j = 0
    while (j < nl) {
      var n = 0
      while (n < nc) {
        s(j)(n) = sim(lSegs(j), cSegs(n))
        n += 1
      }
      j += 1
    }
    var softAlign = 0.0
    var bestMean  = 0.0
    var posDev    = 0.0
    j = 0
    while (j < nl) {
      // attention logits: similarity biased towards positionally close segments
      var zMax = Double.NegativeInfinity
      var n = 0
      while (n < nc) {
        val z = 6.0 * s(j)(n) - 3.0 * math.abs(lPos(j) - cPos(n))
        if (z > zMax) zMax = z
        n += 1
      }
      var den = 0.0
      var num = 0.0
      var best = 0.0
      var bestN = 0
      n = 0
      while (n < nc) {
        val z = 6.0 * s(j)(n) - 3.0 * math.abs(lPos(j) - cPos(n))
        val e = math.exp(z - zMax)
        den += e
        num += e * s(j)(n)
        if (s(j)(n) > best) { best = s(j)(n); bestN = n }
        n += 1
      }
      softAlign += num / den
      bestMean += best
      posDev += math.abs(lPos(j) - cPos(bestN))
      j += 1
    }
    softAlign /= nl
    bestMean /= nl
    val posCons = math.max(0.0, 1.0 - 2.0 * posDev / nl)
    var coverage = 0.0
    var n = 0
    while (n < nc) {
      var best = 0.0
      j = 0
      while (j < nl) { if (s(j)(n) > best) best = s(j)(n); j += 1 }
      coverage += best
      n += 1
    }
    coverage /= nc
    val globalSim = sim(Features.pool(lSegs), Features.pool(cSegs))
    Array(softAlign, bestMean, coverage, posCons, globalSim)
  }

  def daPairFeatures(
      line: LineEmb,
      col: ColumnEmb,
      cfg: FcmConfig
  ): (Array[Double], Int) = {
    val identity = pairFeatures(line.segs, line.pos, col.segs, col.pos, cfg)
    if (!cfg.useDa || col.variants.isEmpty) return (identity, 0)

    val idScore = Matcher.preScore(identity)
    var bestOp = 0
    var bestFeat = identity
    var bestScore = Double.NegativeInfinity
    var i = 0
    while (i < col.variants.length) {
      val v = col.variants(i)
      val f = pairFeatures(line.segs, line.pos, v.segs, v.pos, cfg)
      val u = Matcher.preScore(f)
      if (u > bestScore) { bestScore = u; bestFeat = f; bestOp = v.op }
      i += 1
    }
    if (bestScore > idScore + Matcher.GateMargin) (bestFeat, bestOp) else (identity, 0)
  }

  /** `maxWeight` is the bitmask DP, which takes at most 16 columns; a
    * wider table is assigned by `Matching.maxWeight`, which `MatchingSpec`
    * checks against brute force.
    */
  def tableFeatures(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] = {
    val m  = chart.m
    val nc = tab.cols.length
    if (m == 0 || nc == 0) return Array.fill(cfg.featureDim)(0.0)
    val u     = Array.ofDim[Double](m, nc)
    val align = Array.ofDim[Double](m, nc)
    var i = 0
    while (i < m) {
      var c = 0
      while (c < nc) {
        val (f, _) = daPairFeatures(chart.lines(i), tab.cols(c), cfg)
        u(i)(c) = Matcher.preScore(f)
        align(i)(c) = f(0)
        c += 1
      }
      i += 1
    }
    val (matchW, assign) = if (nc <= 16) DpMatching.maxWeight(u) else Matching.maxWeight(u)
    val b1 = matchW / m
    var b2 = 0.0
    var b3 = 0.0
    i = 0
    while (i < m) {
      var best = 0.0
      var zMax = Double.NegativeInfinity
      var c = 0
      while (c < nc) {
        if (u(i)(c) > best) best = u(i)(c)
        if (6.0 * u(i)(c) > zMax) zMax = 6.0 * u(i)(c)
        c += 1
      }
      var den = 0.0
      var num = 0.0
      c = 0
      while (c < nc) {
        val e = math.exp(6.0 * u(i)(c) - zMax)
        den += e
        num += e * u(i)(c)
        c += 1
      }
      b2 += best
      b3 += num / den
      i += 1
    }
    b2 /= m
    b3 /= m
    var b4 = 0.0
    var c = 0
    while (c < nc) {
      val ov = Matcher.rangeOverlap(chart, tab.cols(c), cfg.useDa)
      if (ov > b4) b4 = ov
      c += 1
    }
    var matched = 0
    var alignSum = 0.0
    i = 0
    while (i < m) {
      if (assign(i) >= 0 && u(i)(assign(i)) > 0.25) matched += 1
      if (assign(i) >= 0) alignSum += align(i)(assign(i))
      i += 1
    }
    val b5 = matched.toDouble / m
    val b6 = alignSum / m
    Array(b1, b2, b3, b4, b5, b6)
  }

  def hcmanOffFeatures(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Array[Double] = {
    if (chart.m == 0 || tab.cols.isEmpty) return Array.fill(cfg.featureDim)(0.0)
    val chartPool = Features.pool(chart.lines.map(_.pooled))
    val tabPool   = Features.pool(tab.cols.map(c => Features.pool(c.segs)))
    var b4 = 0.0
    tab.cols.foreach { colEmb =>
      val ov = Matcher.rangeOverlap(chart, colEmb, cfg.useDa)
      if (ov > b4) b4 = ov
    }
    Array(sim(chartPool, tabPool), Features.cosine(chartPool, tabPool), b4)
  }

  def score(chart: ChartEmb, tab: TableEmb, cfg: FcmConfig): Double = {
    val x =
      if (cfg.useHcman) tableFeatures(chart, tab, cfg) else hcmanOffFeatures(chart, tab, cfg)
    val w = cfg.headWeights
    var z = w(0)
    var i = 0
    while (i < x.length) { z += w(i + 1) * x(i); i += 1 }
    Matcher.sigmoid(z)
  }
}
