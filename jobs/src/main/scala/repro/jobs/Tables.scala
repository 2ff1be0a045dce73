package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchConfig, Experiment}

/** spark-submit entrypoints, one per paper table. Each job builds (or
  * reuses) the benchmark at the appropriate scale, runs the experiment and
  * prints the same rows the paper reports.
  *
  * Usage: spark-submit --class repro.jobs.TableII <jar> [scale]
  * where scale ∈ {unit, small, bench} (default: bench; tables VII and IX
  * default to small, as in DESIGN.md §5).
  */
object Jobs {

  def session(): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-jobs")
      .config("spark.ui.enabled", "false")
      .getOrCreate()

  def scale(args: Array[String], default: BenchConfig): BenchConfig =
    args.headOption match {
      case Some("unit")  => BenchConfig.unit
      case Some("small") => BenchConfig.small
      case Some("bench") => BenchConfig.bench
      case _             => default
    }

  def experiment(args: Array[String], default: BenchConfig = BenchConfig.bench): Experiment =
    new Experiment(session(), scale(args, default))
}

object TableI {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args)
    println("Table I: benchmark statistics (counts by number of lines M)")
    e.tableI().foreach { case (who, counts) =>
      val total = counts.values.sum
      println(f"$who%-12s total=$total%-6d " +
        Seq("1", "2-4", "5-7", ">7").map(b => s"$b=${counts(b)}").mkString("  "))
    }
  }
}

object TableII {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args)
    println("Table II: effectiveness for all queries and with/without DA")
    println(e.renderMethodTable(e.tableII(), "prec/ndcg"))
  }
}

object TableIII {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args)
    println("Table III: overall effectiveness w.r.t. varying M")
    println(e.renderMethodTable(e.tableIII(), "prec/ndcg"))
  }
}

object TableIV {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args)
    println("Table IV: breakdown of DA-based queries using prec@k")
    val t = e.tableIV()
    val buckets = Seq("0-10", "20-40", "40-60", "60-80", "80-100")
    println("%-6s".format("") + buckets.map(b => "%-10s".format(b)).mkString)
    Seq("min", "max", "sum", "avg").foreach { op =>
      println("%-6s".format(op) +
        buckets.map(b => "%-10s".format(t.get((op, b)).map(e.fmt).getOrElse("-"))).mkString)
    }
  }
}

object TableV {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args)
    println("Table V: effectiveness of FCM vs FCM-HCMAN")
    println("%-10s%-10s%-10s%-12s%-12s".format("M", "FCM p", "FCM n", "HCMAN- p", "HCMAN- n"))
    e.tableV().foreach { case (label, f, h) =>
      println("%-10s%-10s%-10s%-12s%-12s"
        .format(label, e.fmt(f.prec), e.fmt(f.ndcg), e.fmt(h.prec), e.fmt(h.ndcg)))
    }
  }
}

object TableVI {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args)
    println("Table VI: impact of the DA-related layers (FCM vs FCM-DA)")
    println("%-12s%-10s%-10s%-12s%-12s".format("Queries", "FCM p", "FCM n", "FCM-DA p", "FCM-DA n"))
    e.tableVI().foreach { case (label, f, d) =>
      println("%-12s%-10s%-10s%-12s%-12s"
        .format(label, e.fmt(f.prec), e.fmt(f.ndcg), e.fmt(d.prec), e.fmt(d.ndcg)))
    }
  }
}

object TableVII {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args, default = BenchConfig.small)
    println("Table VII: the impact of different P1 and P2 (prec@k)")
    val p1s = Seq(15, 30, 60, 120, 240)
    val p2s = Seq(16, 32, 64, 128, 256)
    val grid = e.tableVII(p1s, p2s)
    println("%-8s".format("P1\\P2") + p2s.map(p => "%-10d".format(p)).mkString)
    p1s.foreach { p1 =>
      println("%-8d".format(p1) + p2s.map(p2 => "%-10s".format(e.fmt(grid((p1, p2))))).mkString)
    }
  }
}

object TableVIII {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args)
    println("Table VIII: comparison of different indexing strategies")
    println("%-16s%-10s%-10s%-14s%-14s".format("Strategy", "prec", "ndcg", "query ms", "avg cands"))
    e.tableVIII().foreach { r =>
      println("%-16s%-10s%-10s%-14d%-14.1f".format(r.strategy, e.fmt(r.prec), e.fmt(r.ndcg), r.timeMs, r.avgCandidates))
    }
  }
}

object TableIX {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(args, default = BenchConfig.small)
    println("Table IX: the impact of the number of negative samples")
    val rows = e.tableIX()
    println("%-8s".format("N-") + rows.map(r => "%-8d".format(r._1)).mkString)
    println("%-8s".format("prec") + rows.map(r => "%-8s".format(e.fmt(r._2))).mkString)
    println("%-8s".format("ndcg") + rows.map(r => "%-8s".format(e.fmt(r._3))).mkString)
  }
}

/** Runs every table at its default scale (the full reproduction). */
object RunAll {
  def main(args: Array[String]): Unit = {
    TableI.main(args); TableII.main(args); TableIII.main(args); TableIV.main(args)
    TableV.main(args); TableVI.main(args); TableVII.main(args); TableVIII.main(args)
    TableIX.main(args)
  }
}
