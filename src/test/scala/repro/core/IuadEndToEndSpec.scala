package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.dblp.DblpSynth

/** End-to-end pipeline checks at unit-test scale. The quantitative targets
  * mirror Table IV's *shape*: SCN = high precision / modest recall, GCN =
  * large recall gain at a small precision cost.
  */
class IuadEndToEndSpec extends SparkSpec {
  import spark.implicits._

  private lazy val cfg = DblpSynth.Config(sf = 0.005, seed = 42L)
  private lazy val (papersDf, authDf) = {
    val (p, a) = DblpSynth.generate(spark, cfg)
    (p.cache(), a.cache())
  }
  private lazy val evalNames = Evaluation.ambiguousNames(authDf).cache()
  private lazy val result = Iuad.run(spark, papersDf, authDf, Iuad.Config(eta = 3, seed = 7L))
  private lazy val scnMetrics =
    Evaluation.pairwiseMicro(spark, result.scnAssignment, authDf, Some(evalNames))
  private lazy val gcnMetrics =
    Evaluation.pairwiseMicro(spark, result.assignment, authDf, Some(evalNames))

  test("pipeline runs end to end and assigns every occurrence") {
    assert(result.assignment.count() === authDf.select("pid", "name").distinct().count())
  }

  test("every occurrence has exactly one cluster") {
    val dup = result.assignment.groupBy("pid", "name").count().filter(col("count") > 1).count()
    assert(dup === 0L)
  }

  test("clusters never span names") {
    val cross = result.assignment.groupBy("cluster")
      .agg(countDistinct("name").as("n")).filter(col("n") > 1).count()
    assert(cross === 0L)
  }

  test("SCN stage is high precision (Table IV shape)") {
    info(s"SCN: $scnMetrics")
    assert(scnMetrics.precision > 0.85, s"SCN precision: $scnMetrics")
  }

  test("SCN stage has modest recall (bottom-up starts conservative)") {
    assert(scnMetrics.recall < 0.75, s"SCN recall should be the weak spot: $scnMetrics")
  }

  test("GCN improves recall substantially over SCN (Table IV shape)") {
    info(s"GCN: $gcnMetrics")
    assert(gcnMetrics.recall > scnMetrics.recall + 0.10,
      s"GCN must win recall back: SCN=$scnMetrics GCN=$gcnMetrics")
  }

  test("GCN precision stays close to SCN precision (Table IV shape)") {
    assert(gcnMetrics.precision > scnMetrics.precision - 0.12,
      s"GCN gave up too much precision: SCN=$scnMetrics GCN=$gcnMetrics")
  }

  test("GCN F1 beats SCN F1") {
    assert(gcnMetrics.f1 > scnMetrics.f1, s"SCN=$scnMetrics GCN=$gcnMetrics")
  }

  test("overall quality is strong on the synthetic testing subset") {
    assert(gcnMetrics.f1 > 0.6, s"GCN F1 too low: $gcnMetrics")
    assert(gcnMetrics.accuracy > 0.6, s"GCN accuracy too low: $gcnMetrics")
  }

  test("learned model separates matched from unmatched pairs") {
    val m = result.model
    assert(m.p > 0.0 && m.p < 1.0)
    // score must vary across candidate pairs
    val scores = result.scored.map(_.score).take(1000)
    assert(scores.distinct.length > 10)
  }

  test("split-vertex balancing produces matched training pairs") {
    val known = Iuad.splitVertexPairs(spark, result.scn, papersDf, authDf, result.stats,
      Iuad.Config(eta = 3, seed = 7L))
    assert(known.nonEmpty, "no split-vertex pairs at this scale")
    known.foreach(g => assert(g.length === Similarity.NumFeatures))
  }

  test("each split half holds its parity of the parent's papers and a bare-name WL") {
    val splitCfg = Iuad.Config(eta = 3, seed = 7L)
    val halves = Iuad.splitHalves(spark, result.scn, papersDf, authDf, splitCfg)
    assert(halves.nonEmpty, "no split vertices at this scale")
    val parentPids = result.scn.vertexPapers.select("vid", "pid").as[(String, Long)].collect()
      .groupBy(_._1).map { case (vid, rows) => vid -> rows.map(_._2).toSet }
    halves.foreach { h =>
      val (parent, half) = h.vid.splitAt(h.vid.length - 3)
      val parity = half match { case "/s0" => 0L; case "/s1" => 1L }
      val expected = parentPids(parent).filter(pid => Math.floorMod(pid + splitCfg.seed, 2L) == parity)
      assert(h.pids.toSet === expected, h.vid)
      assert(h.pids.size === expected.size, h.vid)
      assert(h.wl === WlKernel.features(h.vid, h.name, Map.empty, Map.empty, splitCfg.wlIters), h.vid)
    }
  }

  test("names containing /s keep every split pair") {
    val splitCfg = Iuad.Config(eta = 3, seed = 7L, splitMaxVertices = Int.MaxValue)
    val renamed = authDf.withColumn("name", concat(lit("x/s"), col("name")))
    val renamedScn = ScnBuilder.build(spark, renamed, splitCfg.eta)
    val n = Iuad.splitVertexPairs(spark, result.scn, papersDf, authDf, result.stats, splitCfg).length
    val nRenamed = Iuad.splitVertexPairs(spark, renamedScn, papersDf, renamed, result.stats, splitCfg).length
    assert(n > 0)
    assert(nRenamed === n)
  }

  test("names containing # keep every γ and every split pair") {
    val splitCfg = Iuad.Config(eta = 3, seed = 7L, splitMaxVertices = Int.MaxValue)
    val renamed = authDf.withColumn("name", concat(lit("x#"), col("name")))
    val renamedScn = ScnBuilder.build(spark, renamed, splitCfg.eta)
    val renamedProfiles = Profiles.build(spark, renamedScn, papersDf, renamed, splitCfg.wlIters)
    val gammaOf = Similarity.candidatePairs(spark, renamedProfiles, result.stats).collect()
      .map(p => (p.vi.drop(2), p.vj.drop(2)) -> p.g).toMap
    val pairs = result.pairs.collect()
    assert(pairs.nonEmpty)
    assert(gammaOf.size === pairs.length)
    pairs.foreach { p =>
      val g = gammaOf((p.vi, p.vj))
      (0 until Similarity.NumFeatures).foreach(k => assert(g(k) === p.g(k), s"γ${k + 1} of ${p.vi}, ${p.vj}"))
    }
    val n = Iuad.splitVertexPairs(spark, result.scn, papersDf, authDf, result.stats, splitCfg).length
    val nRenamed = Iuad.splitVertexPairs(spark, renamedScn, papersDf, renamed, result.stats, splitCfg).length
    assert(n > 0)
    assert(nRenamed === n)
  }

  test("stage outputs are leaf plans that keep their shuffle partitioning") {
    // Nested caches embed every parent plan, so the rendered plan grows
    // exponentially with pipeline depth, not with data size.
    val planChars = result.assignment.queryExecution.toString.length
    info(s"assignment plan: $planChars characters")
    assert(planChars < 1000000, s"assignment plan renders to $planChars characters")
    // The EM training sample is drawn per partition of `pairs`.
    assert(result.pairs.rdd.getNumPartitions === spark.conf.get("spark.sql.shuffle.partitions").toInt)
  }

  test("a run caches only vertexPapers and pairs") {
    papersDf.count(); authDf.count()
    val before = spark.sparkContext.getPersistentRDDs.keySet.toSet
    Iuad.run(spark, papersDf, authDf, Iuad.Config(eta = 3, seed = 7L)).assignment.count()
    val added = spark.sparkContext.getPersistentRDDs.keySet.toSet -- before
    assert(added.size === 2, s"cached RDDs added by the run: $added")
  }

  test("pipeline is deterministic in config and seed") {
    val r2 = Iuad.run(spark, papersDf, authDf, Iuad.Config(eta = 3, seed = 7L))
    val a1 = result.assignment.orderBy("pid", "name").collect().map(_.toString)
    val a2 = r2.assignment.orderBy("pid", "name").collect().map(_.toString)
    assert(a1.sameElements(a2))
  }

  test("larger delta merges less (recall monotone in -delta)") {
    val strictMapping = GcnBuilder.clusterMapping(spark, result.scn.vertices, result.scored, delta = 1e9)
    val strictAssign = GcnBuilder.assignment(result.scn.vertexPapers, strictMapping)
    val strict = Evaluation.pairwiseMicro(spark, strictAssign, authDf, Some(evalNames))
    assert(strict.recall <= gcnMetrics.recall + 1e-12)
  }
}
