package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** `body` over `inputs` in three layouts: 1 shuffle partition; 8; and 8
    * with each input's rows shuffled and spread over 5 partitions. An
    * order-invariant `body` gives three equal results.
    */
  def inThreeLayouts[T](inputs: DataFrame*)(body: Seq[DataFrame] => T): Seq[T] = {
    def shuffled(df: DataFrame, seed: Long): DataFrame = {
      val rows = new scala.util.Random(seed).shuffle(df.collect().toSeq)
      spark.createDataFrame(java.util.Arrays.asList(rows: _*), df.schema).repartition(5)
    }
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    try {
      spark.conf.set(key, "1")
      val one = body(inputs)
      spark.conf.set(key, "8")
      Seq(one, body(inputs), body(inputs.zipWithIndex.map { case (df, i) => shuffled(df, 7L + i) }))
    } finally spark.conf.set(key, before)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
