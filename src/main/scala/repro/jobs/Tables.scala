package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{BenchConfig, Experiment}

import scala.collection.mutable

/** spark-submit entrypoints, one per paper table. Each prints its title and
  * the rows `Experiment` renders for its table.
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

  private val experiments = mutable.Map.empty[BenchConfig, Experiment]

  /** The experiment at `cfg`, built once per JVM, so the tables `RunAll`
    * prints at one scale share its benchmark, ground truth, heads and
    * rankings.
    */
  def experiment(cfg: BenchConfig): Experiment = synchronized {
    experiments.getOrElseUpdate(cfg, new Experiment(session(), cfg))
  }
}

/** One paper table's entrypoint: prints `title` and what `render` returns
  * for the experiment at the scale the first argument names, or at `default`.
  */
abstract class TableJob(title: String, default: BenchConfig = BenchConfig.bench)(render: Experiment => String) {
  def main(args: Array[String]): Unit = {
    val e = Jobs.experiment(Jobs.scale(args, default))
    println(title)
    println(render(e))
  }
}

object TableI extends TableJob("Table I: benchmark statistics (counts by number of lines M)")(e =>
  e.renderTableI(e.tableI()))

object TableII extends TableJob("Table II: effectiveness for all queries and with/without DA")(e =>
  e.renderMethodTable(e.tableII()))

object TableIII extends TableJob("Table III: overall effectiveness w.r.t. varying M")(e =>
  e.renderMethodTable(e.tableIII()))

object TableIV extends TableJob("Table IV: breakdown of DA-based queries using prec@k")(e =>
  e.renderTableIV(e.tableIV()))

object TableV extends TableJob("Table V: effectiveness of FCM vs FCM-HCMAN")(e =>
  e.renderTableV(e.tableV()))

object TableVI extends TableJob("Table VI: impact of the DA-related layers (FCM vs FCM-DA)")(e =>
  e.renderTableVI(e.tableVI()))

object TableVII extends TableJob("Table VII: the impact of different P1 and P2 (prec@k)", BenchConfig.small)(e =>
  e.renderTableVII(e.tableVII()))

object TableVIII extends TableJob("Table VIII: comparison of different indexing strategies")(e =>
  e.renderTableVIII(e.tableVIII()))

object TableIX extends TableJob("Table IX: the impact of the number of negative samples", BenchConfig.small)(e =>
  e.renderTableIX(e.tableIX()))

/** Runs every table at its default scale (the full reproduction), building
  * one experiment per scale.
  */
object RunAll {
  def main(args: Array[String]): Unit =
    Seq(TableI, TableII, TableIII, TableIV, TableV, TableVI, TableVII, TableVIII, TableIX).foreach(_.main(args))
}
