package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.PropCheck.check
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
    val within   = ColumnEmb(0, 4, 2.0, 8.0, 20.0, Array.empty, Array.empty, Array.empty)
    val disjoint = ColumnEmb(0, 4, 100.0, 200.0, 600.0, Array.empty, Array.empty, Array.empty)
    assert(Matcher.rangeOverlap(chart, within, useDa = false) == 0.6)
    assert(Matcher.rangeOverlap(chart, disjoint, useDa = false) == 0.0)
    // sum reaches down into the chart range when aggregation is considered
    val sumReaches = ColumnEmb(0, 4, 100.0, 200.0, 5.0, Array.empty, Array.empty, Array.empty)
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
    check(Prop.forAll(pairGen) { case ((lSegs, lPos), (cSegs, cPos)) =>
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
      (LineEmb(lSegs, lPos, Features.pool(lSegs), 0.0, 1.0),
       ColumnEmb(0, 64, 0.0, 1.0, 1.0, cSegs, cPos, variants.toArray))
    }
    var aggWins = 0
    Seq(cfg, cfg.copy(useDa = false)).foreach { c =>
      check(Prop.forAll(gen) { case (line, col) =>
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
      check(Prop.forAll(gen) { case (tid, cols, lines) =>
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
    check(Prop.forAll(gen) { case (cols, lines) =>
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

  /** Segments of an expert built to stress the pre-score bound: random;
    * a copy of the line (every aligned distance is 0, so similarities
    * saturate at 1.0); one segment repeated at spread positions (a row of
    * equal similarities, whose attention-weighted mean may round above the
    * row's best); or no segments at all.
    */
  private def adversarialSegs(line: (Array[Array[Double]], Array[Double])) = for {
    kind <- Gen.choose(0, 4)
    rnd  <- segsGen
    reps <- Gen.choose(1, 12)
  } yield kind match {
    case 0 | 1 => rnd
    case 2     => (line._1.map(_.clone), line._2.clone)
    case 3     => (Array.fill(reps)(rnd._1(0).clone), Array.tabulate(reps)(i => (i + 0.5) / reps))
    case _     => (Array.empty[Array[Double]], Array.empty[Double])
  }

  /** A column whose experts are adversarial for the MoE's work skipping:
    * besides `adversarialSegs`, an expert may repeat an earlier expert
    * (its pre-score ties the running best) or the column itself (it ties
    * the identity expert, so it can never clear the gate).
    */
  private def adversarialColumn(line: (Array[Array[Double]], Array[Double])): Gen[ColumnEmb] = for {
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
    ColumnEmb(0, 64, 0.0, 1.0, 1.0, cSegs, cPos, variants)
  }

  /** One to three lines (one segment, in one case in four) and one to three
    * adversarial columns.
    */
  private val adversarialGen: Gen[(Array[LineEmb], Array[ColumnEmb])] = for {
    m     <- Gen.choose(1, 3)
    lines <- Gen.listOfN(m, Gen.oneOf(segsGen, segsGen.map { case (s, p) => (s.take(1), p.take(1)) }))
    nCols <- Gen.choose(1, 3)
    cols  <- Gen.listOfN(nCols, adversarialColumn(lines.head))
  } yield (lines.map { case (s, p) => LineEmb(s, p, Features.pool(s), 0.0, 1.0) }.toArray, cols.toArray)

  test("daPairFeatures and score equal the reference bit for bit on adversarial experts (scalacheck)") {
    var aggWins = 0
    check(Prop.forAll(adversarialGen) { case (lines, cols) =>
      val pairs = for (line <- lines; col <- cols) yield {
        val (f, op)       = Matcher.daPairFeatures(line, col, cfg)
        val (fRef, opRef) = Reference.daPairFeatures(line, col, cfg)
        if (op != 0) aggWins += 1
        bits(f) == bits(fRef) && op == opRef
      }
      val chart = ChartEmb(lines, 0.0, 1.0)
      val tab   = TableEmb(1L, cols)
      pairs.forall(identity) &&
        bits(Array(Matcher.score(chart, tab, cfg))) == bits(Array(Reference.score(chart, tab, cfg)))
    }, 150)
    assert(aggWins > 0)
  }

  test("the SL-SAN pre-score bound holds, ties with the bar are skipped, and a lower bar runs the attention pass (scalacheck)") {
    val gen = for {
      line   <- Gen.oneOf(segsGen, segsGen.map { case (s, p) => (s.take(1), p.take(1)) })
      expert <- adversarialSegs(line).suchThat(_._1.nonEmpty)
    } yield (line, expert)
    var roundedAbove = 0
    check(Prop.forAll(gen) { case ((lSegs, lPos), (cSegs, cPos)) =>
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
  def encodeColumn(colIdx: Int, column: Array[Double], cfg: FcmConfig): ColumnEmb = {
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
    ColumnEmb(colIdx, values.length, mn, mx, sm, segs, pos, variants)
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
    val (matchW, assign) = DpMatching.maxWeight(u)
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
