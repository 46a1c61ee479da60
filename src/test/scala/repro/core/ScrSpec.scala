package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.dblp.DblpSynth

class ScrSpec extends SparkSpec {
  import spark.implicits._

  private def auth(rows: (Long, String)*) =
    rows.toDF("pid", "name")

  test("pair counts on a tiny hand-built corpus") {
    val a = auth((1L, "a"), (1L, "b"), (2L, "a"), (2L, "b"), (3L, "a"), (3L, "c"))
    val got = Scr.pairCounts(a).as[(String, String, Long)].collect().toSet
    assert(got === Set(("a", "b", 2L), ("a", "c", 1L)))
  }

  test("mine filters by support threshold") {
    val a = auth((1L, "a"), (1L, "b"), (2L, "a"), (2L, "b"), (3L, "a"), (3L, "c"))
    val got = Scr.mine(a, 2).as[(String, String, Long)].collect().toSet
    assert(got === Set(("a", "b", 2L)))
  }

  test("mine rejects non-positive eta") {
    val a = auth((1L, "a"), (1L, "b"))
    intercept[IllegalArgumentException] { Scr.mine(a, 0) }
  }

  test("pairs are canonical (a < b) and symmetric input collapses") {
    val a = auth((1L, "z"), (1L, "a"), (2L, "a"), (2L, "z"))
    val got = Scr.pairCounts(a).as[(String, String, Long)].collect().toSet
    assert(got === Set(("a", "z", 2L)))
  }

  test("duplicate (pid, name) occurrences count once per paper") {
    val a = auth((1L, "a"), (1L, "a"), (1L, "b"))
    val got = Scr.pairCounts(a).as[(String, String, Long)].collect().toSet
    assert(got === Set(("a", "b", 1L)))
  }

  test("triangles found when all three pairs are SCRs") {
    val scrs = Seq(("a", "b", 3L), ("a", "c", 3L), ("b", "c", 3L), ("a", "d", 3L))
      .toDF("a", "b", "cnt")
    val got = ScrSpec.triangles(scrs).as[(String, String, String)].collect().toSet
    assert(got === Set(("a", "b", "c")))
  }

  test("no triangle when one side is missing") {
    val scrs = Seq(("a", "b", 3L), ("a", "c", 3L)).toDF("a", "b", "cnt")
    assert(ScrSpec.triangles(scrs).count() === 0L)
  }

  test("oracle: pair counts match DuckDB self-join") {
    val (_, a) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 7L))
    val occ = a.select("pid", "name").distinct()
    Oracle.assertEquivalent(
      Scr.pairCounts(a).withColumn("cnt", col("cnt").cast("string")),
      """SELECT l.name AS a, r.name AS b, CAST(count(*) AS VARCHAR) AS cnt
        |FROM occ l JOIN occ r ON l.pid = r.pid AND l.name < r.name
        |GROUP BY l.name, r.name""".stripMargin,
      "occ" -> occ,
    )
  }

  test("DataFrame mining is equivalent to FP-growth 2-itemsets") {
    val (_, a) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 9L))
    val eta = 3
    val viaDf = Scr.mine(a, eta).as[(String, String, Long)].collect().toSet
    val viaFp = ScrSpec.mineViaFpGrowth(a, eta).as[(String, String, Long)].collect().toSet
    assert(viaDf === viaFp)
  }

  test("synthetic corpus yields a non-trivial number of SCRs at eta=3") {
    val (_, a) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.003, seed = 42L))
    val n = Scr.mine(a, 3).count()
    assert(n > 20L, s"only $n SCRs — generator not collaborative enough")
  }

  test("higher eta is monotonically more selective") {
    val (_, a) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 5L))
    val n2 = Scr.mine(a, 2).count()
    val n3 = Scr.mine(a, 3).count()
    val n5 = Scr.mine(a, 5).count()
    assert(n2 >= n3 && n3 >= n5)
  }
}

object ScrSpec {

  /** Stable collaborative triangles: name triples where all three pairs are
    * η-SCRs, as a 3-way self-join of `scrs` (a, b) with a < b. The reference
    * formulation of the SCN's partner components (`ScnSpec`).
    * Output: (x, y, z) with x < y < z.
    */
  def triangles(scrs: DataFrame): DataFrame = {
    val e1 = scrs.select(col("a").as("x"), col("b").as("y"))
    val e2 = scrs.select(col("a").as("y2"), col("b").as("z"))
    val e3 = scrs.select(col("a").as("x3"), col("b").as("z3"))
    e1.join(e2, col("y") === col("y2"))
      .join(e3, col("x") === col("x3") && col("z") === col("z3"))
      .select(col("x"), col("y"), col("z"))
  }

  /** Reference implementation through Spark MLlib's FP-growth, kept for the
    * equivalence test — production code uses [[Scr.mine]] (exact and cheaper for
    * the 2-itemset-only case).
    */
  def mineViaFpGrowth(authorships: DataFrame, eta: Int): DataFrame = {
    val nTx = authorships.select("pid").distinct().count()
    val transactions = authorships
      .select("pid", "name")
      .distinct()
      .groupBy("pid")
      .agg(collect_list("name").as("items"))
    val model = new org.apache.spark.ml.fpm.FPGrowth()
      .setItemsCol("items")
      .setMinSupport(math.max(eta.toDouble / nTx.toDouble, 1e-12))
      .setMinConfidence(0.0)
      .fit(transactions)
    model.freqItemsets
      .where(size(col("items")) === 2)
      .select(
        array_min(col("items")).as("a"),
        array_max(col("items")).as("b"),
        col("freq").as("cnt"),
      )
      .where(col("cnt") >= eta)
  }
}
