package repro.jobs

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.exp.Experiments

/** Computes one of the paper's tables and writes its rows to
  * `BENCH_<table>.json` in the working directory.
  *
  * Usage: spark-submit --class repro.jobs.Tables repro.jar <II|III|IV|V|VI> [sf] [seed]
  * Default sf = 0.1 (benchmark scale), seed = 42.
  */
object Tables {
  def main(args: Array[String]): Unit = {
    val tables = Seq("II", "III", "IV", "V", "VI")
    require(args.nonEmpty && tables.contains(args(0)), s"usage: Tables <${tables.mkString("|")}> [sf] [seed]")
    val table = args(0)
    val sf = args.lift(1).map(_.toDouble).getOrElse(0.1)
    val seed = args.lift(2).map(_.toLong).getOrElse(42L)
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-table$table")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    val c = Experiments.corpus(spark, sf, seed)
    val (rows, wallS) = Experiments.timed[Seq[AnyRef]](table match {
      case "II"  => Experiments.tableII(spark, c)
      case "III" => Experiments.tableIII(spark, c, Experiments.runIuad(spark, c))
      case "IV"  => Seq(Experiments.tableIV(Experiments.runIuad(spark, c)))
      case "V"   => Experiments.tableV(spark, c)
      case "VI"  => Experiments.tableVI(spark, c)
    })
    Experiments.write(table, c, wallS, rows, new File("."))
    spark.stop()
  }
}
