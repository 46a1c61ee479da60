package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import Model._

class GcnSpec extends SparkSpec {
  import spark.implicits._

  private val model = Em.EmModel(
    p = 0.2,
    matched = Seq(ExpFamily.Gaussian(0.8, 0.01), ExpFamily.Exponential(1.0),
      ExpFamily.Gaussian(0.8, 0.01), ExpFamily.Exponential(1.0),
      ExpFamily.Exponential(1.0), ExpFamily.Exponential(1.0)),
    unmatched = Seq(ExpFamily.Gaussian(0.1, 0.01), ExpFamily.Exponential(20.0),
      ExpFamily.Gaussian(0.1, 0.01), ExpFamily.Exponential(20.0),
      ExpFamily.Exponential(20.0), ExpFamily.Exponential(20.0)),
  )

  private val hiG = Array(0.8, 0.5, 0.8, 0.5, 0.5, 0.5)
  private val loG = Array(0.1, 0.0, 0.1, 0.0, 0.0, 0.0)

  test("scorePairs computes the broadcast model's log-odds per partition") {
    val pairs = Seq(
      PairGamma("a", "a#c0", "a#c1", hiG),
      PairGamma("a", "a#c0", "a#p5", loG),
    ).toDS()
    val scored = GcnBuilder.scorePairs(spark, pairs, model).collect()
    val hi = scored.find(_.vj == "a#c1").get.score
    val lo = scored.find(_.vj == "a#p5").get.score
    assert(hi > 0.0)
    assert(lo < 0.0)
    assert(math.abs(hi - model.score(hiG)) < 1e-9)
  }

  test("clusterMapping merges accepted pairs transitively") {
    val vertices = Seq(
      ("a#c0", "a"), ("a#c1", "a"), ("a#c2", "a"), ("a#p9", "a"),
    ).toDF("vid", "name")
    val scored = Seq(
      ScoredPair("a", "a#c0", "a#c1", 5.0),
      ScoredPair("a", "a#c1", "a#c2", 5.0),
      ScoredPair("a", "a#c2", "a#p9", -3.0),
    ).toDS()
    val rows = GcnBuilder.clusterMapping(spark, vertices, scored, delta = 0.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    assert(rows("a#c0") === rows("a#c1"))
    assert(rows("a#c1") === rows("a#c2"))
    assert(rows("a#p9") !== rows("a#c0"))
    // canonical id is the min member
    assert(rows("a#c0") === "a#c0")
  }

  test("delta gates the merge") {
    val vertices = Seq(("a#c0", "a"), ("a#c1", "a")).toDF("vid", "name")
    val scored = Seq(ScoredPair("a", "a#c0", "a#c1", 1.0)).toDS()
    val loose = GcnBuilder.clusterMapping(spark, vertices, scored, delta = 0.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    val strict = GcnBuilder.clusterMapping(spark, vertices, scored, delta = 2.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    assert(loose("a#c0") === loose("a#c1"))
    assert(strict("a#c0") !== strict("a#c1"))
  }

  test("unmentioned vertices map to themselves") {
    val vertices = Seq(("b#p1", "b")).toDF("vid", "name")
    val scored = spark.emptyDataset[ScoredPair]
    val m = GcnBuilder.clusterMapping(spark, vertices, scored, 0.0)
      .collect().map(r => r.getString(0) -> r.getString(2)).toMap
    assert(m("b#p1") === "b#p1")
  }

  test("assignment joins vertexPapers through the mapping") {
    val vp = Seq(("a#c0", "a", 1L), ("a#c1", "a", 2L)).toDF("vid", "name", "pid")
    val mapping = Seq(("a#c0", "a", "a#c0"), ("a#c1", "a", "a#c0")).toDF("vid", "name", "cluster")
    val assign = GcnBuilder.assignment(vp, mapping)
      .orderBy("pid").as[(Long, String, String)].collect()
    assert(assign.toSeq === Seq((1L, "a", "a#c0"), (2L, "a", "a#c0")))
  }
}
