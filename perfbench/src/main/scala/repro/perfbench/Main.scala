package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ListMap

/** Entry point: `Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
  *
  * Prints a JSON report line (run environment, input sizes, counts,
  * fingerprints, check results) and, as the last line of standard output, the
  * result object `{"correct", "attempted", "failed", "metrics"}`. With
  * `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
  * per-layer ones.
  */
object Main {

  final case class Args(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Either[String, Args] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): Either[String, String] = kv.get(k).toRight(s"missing --$k")
    for {
      w <- need("workload").flatMap(n => Workloads.byName(n).toRight(
             s"unknown workload '$n' (known: ${Workloads.all.map(_.name).mkString(", ")})"))
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"bad --seed '$s'"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"bad --seconds '$s'"))
      trace <- need("trace").flatMap {
                 case "0" => Right(false); case "1" => Right(true); case t => Left(s"bad --trace '$t'")
               }
      _ <- if (args.length == 2 * kv.size) Right(()) else Left(s"unexpected arguments: ${args.mkString(" ")}")
    } yield Args(w, seed, secs, trace)
  }

  def session(cores: Int, partitions: Int): SparkSession =
    SparkSession.builder()
      .master(s"local[$cores]")
      .appName("iuad-perfbench")
      .config("spark.sql.shuffle.partitions", partitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val args = parse(argv) match {
      case Right(a) => a
      case Left(msg) =>
        Console.err.println(s"perfbench: $msg")
        sys.exit(2)
    }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cores = Runtime.getRuntime.availableProcessors()
    val spark = session(cores, 2 * cores)
    val sessionS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val (report, result) =
      try Bench.run(spark, args, cores, sessionS)
      finally spark.stop()
    println(Json(ListMap("report" -> report)))
    println(Json(result))
  }
}
