package repro.baselines

import repro.SparkSpec
import repro.core.Evaluation
import repro.core.Model.PaperRec
import repro.dblp.DblpSynth

class SupervisedSpec extends SparkSpec {

  private val pA1 = PaperRec(1, Seq("alice", "bob"), Seq("t0_w1", "t0_w2"), "v0", 2000)
  private val pA2 = PaperRec(2, Seq("alice"), Seq("t0_w2"), "v0", 2001)
  private val pB1 = PaperRec(3, Seq("carol"), Seq("t5_w1"), "v9", 2012)

  test("pairFeatures has the documented arity") {
    assert(Supervised.pairFeatures(pA1, pA2).length === Supervised.NumFeatures)
  }

  test("same-author-ish pairs score higher on co-author features") {
    val same = Supervised.pairFeatures(pA1, pA2)
    val diff = Supervised.pairFeatures(pA1, pB1)
    assert(same(0) > diff(0)) // common co-authors
    assert(same(1) > diff(1)) // jaccard co-authors
    assert(same(4) > diff(4)) // venue equality
  }

  test("features are finite and non-negative") {
    for (f <- Supervised.pairFeatures(pA1, pB1)) {
      assert(!f.isNaN && !f.isInfinite && f >= 0.0)
    }
  }

  test("labeledPairs builds every same-name pair with truth labels") {
    import spark.implicits._
    val papers = Seq(
      (1L, Seq("w1"), "v0", 2000),
      (2L, Seq("w2"), "v0", 2001),
      (3L, Seq("w3"), "v1", 2002),
    ).toDF("pid", "title", "venue", "year")
    val auth = Seq(
      (1L, 100L, "a"), (2L, 100L, "a"), (3L, 101L, "a"),
      (1L, 500L, "other"),
    ).toDF("pid", "authorId", "name")
    val names = Seq("a").toDF("name")
    val pairs = Supervised.labeledPairs(spark, papers, auth, names)
    assert(pairs.length === 3)
    assert(pairs.count(_.label == 1) === 1) // (1,2)
    assert(pairs.forall(_.name == "a"))
  }

  test("labeledPairs does not depend on shuffle partitions or input row order") {
    val (papers, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 52L))
    val evalNames = Evaluation.ambiguousNames(auth).cache()
    val runs = inThreeLayouts(papers, auth) { case Seq(p, a) =>
      Supervised.labeledPairs(spark, p, a, evalNames)
        .map(lp => (lp.name, lp.pid1, lp.pid2, lp.x.toSeq, lp.label))
        .sortBy(lp => (lp._1, lp._2, lp._3)).toSeq
    }
    assert(runs.head.nonEmpty)
    assert(runs.distinct.size === 1)
  }

  test("crossPredict yields sane metrics for all four algorithms") {
    val cfg = DblpSynth.Config(sf = 0.003, seed = 51L)
    val (papers, auth) = DblpSynth.generate(spark, cfg)
    val evalNames = Evaluation.ambiguousNames(auth)
    val pairs = Supervised.labeledPairs(spark, papers, auth, evalNames)
    assert(pairs.length > 50, s"need pairs to train on, got ${pairs.length}")
    for (algo <- Seq("adaboost", "gbdt", "rf", "xgboost")) {
      val m = Supervised.crossPredict(pairs, algo)
      info(s"$algo: $m")
      assert(m.tp + m.fp + m.fn + m.tn === pairs.length.toLong, algo)
      assert(m.accuracy > 0.5, s"$algo below chance: $m")
    }
  }

  test("crossPredict rejects empty input and unknown algorithms") {
    intercept[IllegalArgumentException] { Supervised.crossPredict(Array.empty, "rf") }
    val p = Array(Supervised.LabeledPair("a", 1, 2, Array.fill(8)(0.0), 1))
    intercept[IllegalArgumentException] { Supervised.crossPredict(p, "svm") }
  }
}
