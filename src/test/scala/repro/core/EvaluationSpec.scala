package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Oracle, PropChecks, SparkSpec}
import repro.core.Model.Metrics

class EvaluationSpec extends SparkSpec with PropChecks {
  import spark.implicits._

  test("Metrics ratios match their definitions") {
    val m = Metrics(tp = 6, fp = 2, fn = 3, tn = 9)
    assert(m.accuracy === 15.0 / 20.0)
    assert(m.precision === 6.0 / 8.0)
    assert(m.recall === 6.0 / 9.0)
    val p = m.precision; val r = m.recall
    assert(math.abs(m.f1 - 2 * p * r / (p + r)) < 1e-12)
  }

  test("Metrics handles empty denominators") {
    val m = Metrics(0, 0, 0, 0)
    assert(m.accuracy === 0.0)
    assert(m.precision === 0.0)
    assert(m.recall === 0.0)
    assert(m.f1 === 0.0)
  }

  test("Metrics addition is componentwise") {
    assert(Metrics(1, 2, 3, 4) + Metrics(10, 20, 30, 40) === Metrics(11, 22, 33, 44))
  }

  test("ambiguousNames keeps only names with >= 2 true authors") {
    val truth = Seq(
      (1L, "a", 100L), (2L, "a", 101L),
      (3L, "b", 200L), (4L, "b", 200L),
    ).toDF("pid", "name", "authorId")
    val names = Evaluation.ambiguousNames(truth).as[String].collect().toSeq
    assert(names === Seq("a"))
  }

  test("perfect assignment gives perfect metrics") {
    val truth = Seq(
      (1L, "a", 100L), (2L, "a", 100L), (3L, "a", 101L),
    ).toDF("pid", "name", "authorId")
    val assign = Seq(
      (1L, "a", "c1"), (2L, "a", "c1"), (3L, "a", "c2"),
    ).toDF("pid", "name", "cluster")
    val m = Evaluation.pairwiseMicro(spark, assign, truth)
    assert(m === Metrics(1, 0, 0, 2))
    assert(m.f1 === 1.0)
  }

  test("all-singleton assignment has zero recall but perfect TN") {
    val truth = Seq(
      (1L, "a", 100L), (2L, "a", 100L), (3L, "a", 101L),
    ).toDF("pid", "name", "authorId")
    val assign = Seq(
      (1L, "a", "s1"), (2L, "a", "s2"), (3L, "a", "s3"),
    ).toDF("pid", "name", "cluster")
    val m = Evaluation.pairwiseMicro(spark, assign, truth)
    assert(m === Metrics(0, 0, 1, 2))
    assert(m.recall === 0.0)
  }

  test("all-merged assignment has perfect recall, poor precision") {
    val truth = Seq(
      (1L, "a", 100L), (2L, "a", 100L), (3L, "a", 101L),
    ).toDF("pid", "name", "authorId")
    val assign = Seq(
      (1L, "a", "c"), (2L, "a", "c"), (3L, "a", "c"),
    ).toDF("pid", "name", "cluster")
    val m = Evaluation.pairwiseMicro(spark, assign, truth)
    assert(m === Metrics(1, 2, 0, 0))
    assert(m.recall === 1.0)
    assert(m.precision === 1.0 / 3.0)
  }

  test("pairs never cross names (micro counts are per-name pairs)") {
    val truth = Seq(
      (1L, "a", 100L), (2L, "b", 100L),
    ).toDF("pid", "name", "authorId")
    val assign = Seq(
      (1L, "a", "c"), (2L, "b", "c"),
    ).toDF("pid", "name", "cluster")
    val m = Evaluation.pairwiseMicro(spark, assign, truth)
    assert(m === Metrics(0, 0, 0, 0))
  }

  test("evalNames restriction filters the counted pairs") {
    val truth = Seq(
      (1L, "a", 100L), (2L, "a", 100L),
      (3L, "b", 200L), (4L, "b", 201L),
    ).toDF("pid", "name", "authorId")
    val assign = Seq(
      (1L, "a", "c1"), (2L, "a", "c1"),
      (3L, "b", "c2"), (4L, "b", "c2"),
    ).toDF("pid", "name", "cluster")
    val only = Seq("b").toDF("name")
    val m = Evaluation.pairwiseMicro(spark, assign, truth, Some(only))
    assert(m === Metrics(0, 1, 0, 0))
  }

  test("oracle: pair counting agrees with DuckDB on a small case") {
    val truth = Seq(
      (1L, "a", 100L), (2L, "a", 100L), (3L, "a", 101L), (4L, "a", 101L),
    ).toDF("pid", "name", "authorId")
    val assign = Seq(
      (1L, "a", "x"), (2L, "a", "x"), (3L, "a", "x"), (4L, "a", "y"),
    ).toDF("pid", "name", "cluster")
    val m = Evaluation.pairwiseMicro(spark, assign, truth)
    // Cross-check the TP count via DuckDB on the joined pair table.
    val joined = assign.join(truth, Seq("pid", "name")).select("pid", "name", "cluster", "authorId")
    val tpDf = Seq(m.tp).toDF("tp")
    Oracle.assertEquivalent(
      tpDf,
      """SELECT count(*) AS tp FROM j l JOIN j r
        |ON l.name = r.name AND CAST(l.pid AS BIGINT) < CAST(r.pid AS BIGINT)
        |AND l.cluster = r.cluster AND l.authorId = r.authorId""".stripMargin,
      "j" -> joined,
    )
  }

  test("the aggregate of counts equals the pair self-join on random assignments") {
    // Unique (pid, name) keys; truth covers keys the assignment lacks and
    // vice versa, and evalNames may keep any subset of the names.
    val keys = for (pid <- 1L to 12L; name <- Seq("a", "b", "c")) yield (pid, name)
    val gen = for {
      assigned <- Gen.someOf(keys).map(_.toSeq)
      truthKeys <- Gen.someOf(keys).map(_.toSeq)
      clusters <- Gen.listOfN(assigned.size, Gen.oneOf("c0", "c1", "c2", "c3"))
      authors <- Gen.listOfN(truthKeys.size, Gen.choose(100L, 103L))
      names <- Gen.option(Gen.someOf("a", "b", "c"))
    } yield (assigned.zip(clusters), truthKeys.zip(authors), names)
    forAll(gen, samples = 15) { case (assigned, truthRows, names) =>
      val assign = assigned.map { case ((pid, name), c) => (pid, name, c) }.toDF("pid", "name", "cluster")
      val truth = truthRows.map { case ((pid, name), a) => (pid, name, a) }.toDF("pid", "name", "authorId")
      val evalNames = names.map(_.toSeq.toDF("name"))
      assert(Evaluation.pairwiseMicro(spark, assign, truth, evalNames) ===
        EvaluationSpec.selfJoinReference(spark, assign, truth, evalNames))
    }
  }
}

object EvaluationSpec {

  /** The micro counts from every same-name occurrence pair, by a self-join:
    * the reference for [[Evaluation.pairwiseMicro]]'s aggregate of counts.
    */
  def selfJoinReference(
      spark: SparkSession,
      assignment: DataFrame,
      truth: DataFrame,
      evalNames: Option[DataFrame],
  ): Metrics = {
    val joined0 = assignment.join(truth.select("pid", "name", "authorId"), Seq("pid", "name"))
    val joined = evalNames.fold(joined0)(names => joined0.join(names, Seq("name")))
    val l = joined.as("l"); val r = joined.as("r")
    val agg = l.join(r, col("l.name") === col("r.name") && col("l.pid") < col("r.pid"))
      .select(
        (col("l.cluster") === col("r.cluster")).as("predSame"),
        (col("l.authorId") === col("r.authorId")).as("trueSame"),
      )
      .groupBy()
      .agg(
        sum(when(col("predSame") && col("trueSame"), 1L).otherwise(0L)).as("tp"),
        sum(when(col("predSame") && !col("trueSame"), 1L).otherwise(0L)).as("fp"),
        sum(when(!col("predSame") && col("trueSame"), 1L).otherwise(0L)).as("fn"),
        sum(when(!col("predSame") && !col("trueSame"), 1L).otherwise(0L)).as("tn"),
      )
      .collect()(0)
    def n(i: Int): Long = if (agg.isNullAt(i)) 0L else agg.getLong(i)
    Metrics(n(0), n(1), n(2), n(3))
  }
}
