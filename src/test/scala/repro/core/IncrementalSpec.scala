package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.dblp.DblpSynth

class IncrementalSpec extends SparkSpec {
  import spark.implicits._

  // Hold out the 40 newest papers; build GCN on the rest; judge the held-out.
  private lazy val cfg = DblpSynth.Config(sf = 0.004, seed = 13L)
  private lazy val (papersAll, authAll) = {
    val (p, a) = DblpSynth.generate(spark, cfg)
    (p.cache(), a.cache())
  }
  private lazy val heldPids = papersAll.orderBy(desc("year"), desc("pid"))
    .limit(40).select("pid").as[Long].collect().toSet
  private lazy val papersOld = papersAll.filter(!col("pid").isInCollection(heldPids)).cache()
  private lazy val authOld = authAll.filter(!col("pid").isInCollection(heldPids)).cache()
  private lazy val papersNew = papersAll.filter(col("pid").isInCollection(heldPids)).cache()
  private lazy val authNew = authAll.filter(col("pid").isInCollection(heldPids)).cache()

  private lazy val result = Iuad.run(spark, papersOld, authOld, Iuad.Config(eta = 3, seed = 7L))
  private lazy val clusters =
    Incremental.clusterProfiles(spark, result.profiles, result.mapping).cache()
  private lazy val baseline = Baseline2.newProfiles(spark, papersNew, authNew)
  private def judge(papers: DataFrame, auth: DataFrame): DataFrame =
    Incremental.disambiguate(spark, clusters, papers, auth, result.model, result.stats, delta = 25.0)
  private lazy val incremental = judge(papersNew, authNew).cache()

  test("every new occurrence gets judged exactly once") {
    val expected = authNew.select("pid", "name").distinct().count()
    assert(incremental.count() === expected)
    val dup = incremental.groupBy("pid", "name").count().filter(col("count") > 1).count()
    assert(dup === 0L)
  }

  test("cluster profiles merge all member vertices") {
    val nClusters = result.mapping.select("cluster").distinct().count()
    // only clusters that own papers have profiles
    assert(clusters.count() <= nClusters)
    assert(clusters.count() > 0L)
  }

  test("assigned clusters either exist in the GCN or are fresh isolated ids") {
    val gcnClusters = result.mapping.select("cluster").distinct().as[String].collect().toSet
    incremental.select("pid", "name", "cluster").as[(Long, String, String)].collect().foreach {
      case (pid, name, c) =>
        assert(gcnClusters.contains(c) || c == s"$name#new$pid", s"unknown cluster $c")
    }
  }

  test("scores below delta open new clusters") {
    val strict = Incremental.disambiguate(
      spark, clusters, papersNew, authNew, result.model, result.stats, delta = 1e9)
    val fresh = strict.filter(col("cluster").contains("#new")).count()
    assert(fresh === strict.count())
  }

  test("names unseen in the GCN stay isolated with NaN score") {
    val exotic = Seq((999999L, Seq("t0_w1"), "v0", 2010)).toDF("pid", "title", "venue", "year")
    val exoticAuth = Seq((999999L, 424242L, "NeverSeenName")).toDF("pid", "authorId", "name")
    val out = Incremental.disambiguate(
      spark, clusters, exotic, exoticAuth, result.model, result.stats, delta = 0.0)
      .collect()
    assert(out.length === 1)
    assert(out(0).getString(2) === "NeverSeenName#new999999")
    assert(out(0).getDouble(3).isNaN)
  }

  test("incremental judging is reasonably accurate on held-out papers") {
    // Combined evaluation: old assignment ∪ incremental assignment.
    val combined = result.assignment
      .unionByName(incremental.select("pid", "name", "cluster"))
    val evalNames = Evaluation.ambiguousNames(authAll)
    val mAll = Evaluation.pairwiseMicro(spark, combined, authAll, Some(evalNames))
    val mOld = Evaluation.pairwiseMicro(spark, result.assignment, authOld, Some(evalNames))
    info(s"old-only: $mOld")
    info(s"with incremental: $mAll")
    // Table VI shape: incremental loses only a little vs. batch metrics.
    assert(mAll.f1 > mOld.f1 - 0.12, s"incremental degraded too much: $mOld -> $mAll")
  }

  test("per-occurrence judging time is small (Table VI shape: < 50ms scale)") {
    val avgNanos = incremental.agg(avg(col("nanos"))).collect()(0).getDouble(0)
    info(f"avg per-occurrence judge time: ${avgNanos / 1e6}%.3f ms")
    // generous bound: the paper reports < 50 ms/paper on full DBLP
    assert(avgNanos < 500e6, s"incremental judging too slow: ${avgNanos / 1e6} ms")
  }

  test("the profile fold builds new occurrences exactly as the hand-built reference") {
    val vertexPapers = authNew.select("pid", "name").distinct()
      .withColumn("vid", concat(col("name"), lit("#new"), col("pid")))
    val folded = Profiles.fold(spark, vertexPapers, papersNew, authNew, ScnBuilder.Graph.empty, wlIters = 2).collect()
    assert(folded.length === baseline.size)
    folded.foreach { p =>
      val ref = baseline((p.pids.head, p.name))
      assert(p.vid === ref.vid)
      assert(p.pids === ref.pids, p.vid)
      assert(p.venues === ref.venues, p.vid)
      assert(p.cliques === ref.cliques, p.vid)
      assert(p.wl === ref.wl, p.vid)
      assert(p.wordYears.sorted === ref.wordYears.sorted, p.vid)
    }
  }

  /** (pid, name, cluster, bestScore bits) of judged rows, sorted; the bits
    * make NaN scores compare equal.
    */
  private def judgedRows(df: DataFrame): Seq[(Long, String, String, Long)] =
    df.select("pid", "name", "cluster", "bestScore").as[(Long, String, String, Double)].collect()
      .map { case (pid, name, c, s) => (pid, name, c, java.lang.Double.doubleToLongBits(s)) }
      .toSeq.sorted

  test("judging a paper alone gives the rows the batch call gives it") {
    val batch = judgedRows(incremental)
    heldPids.toSeq.sorted.take(10).foreach { pid =>
      val alone = judgedRows(judge(papersNew.filter(col("pid") === pid), authNew.filter(col("pid") === pid)))
      assert(alone.nonEmpty, s"paper $pid")
      assert(alone === batch.filter(_._1 == pid), s"paper $pid")
    }
  }

  test("two identical calls return identical rows") {
    assert(judgedRows(judge(papersNew, authNew)) === judgedRows(incremental))
  }

  test("duplicated authorship rows still give one judged row per occurrence") {
    val pid = heldPids.min
    val one = authNew.filter(col("pid") === pid)
    val rows = judgedRows(judge(papersNew.filter(col("pid") === pid), one.union(one).union(one)))
    assert(rows === judgedRows(incremental).filter(_._1 == pid))
    assert(rows.map(r => (r._1, r._2)).distinct.size === rows.size)
  }

  test("a single-author paper gets a defined row") {
    val name = clusters.select("name").as[String].collect().min
    val lone = Seq((888888L, Seq("t0_w1", "t0_w2"), "v0", 2012)).toDF("pid", "title", "venue", "year")
    val loneAuth = Seq((888888L, 4242L, name)).toDF("pid", "authorId", "name")
    val out = judgedRows(judge(lone, loneAuth))
    assert(out.size === 1)
    val (pid, n, cluster, bits) = out.head
    assert(pid === 888888L && n === name)
    val score = java.lang.Double.longBitsToDouble(bits)
    assert(!score.isNaN, "the name has clusters, so the score is defined")
    val theirs = clusters.filter(col("name") === name).select("vid").as[String].collect().toSet
    assert(theirs.contains(cluster) || cluster === s"$name#new888888", cluster)
  }

  test("equal scores go to the smaller cluster id") {
    val c = clusters.collect().filter(p => p.wordYears.nonEmpty && p.venues.nonEmpty).minBy(_.vid)
    val (small, large) = (Model.Vid.instance(c.name, 900), Model.Vid.instance(c.name, 901))
    val paper = Seq((777777L, c.wordYears.take(2).map(_._1), c.venues.head, 2012)).toDF("pid", "title", "venue", "year")
    val auth = Seq((777777L, 4242L, c.name)).toDF("pid", "authorId", "name")
    for (twins <- Seq(Seq(large, small), Seq(small, large))) {
      val out = Incremental.disambiguate(spark, twins.map(v => c.copy(vid = v)).toDS(), paper, auth,
        result.model, result.stats, delta = Double.NegativeInfinity).collect()
      assert(out.length === 1)
      assert(out(0).getDouble(3) > Double.NegativeInfinity, "the twins' score must be finite")
      assert(out(0).getString(2) === small, twins)
    }
  }

  test("incremental respects argmax: assigned cluster has the best score") {
    // Re-compute scores for a few judged occurrences and verify argmax.
    val clusterArr = clusters.collect()
    val byName = clusterArr.groupBy(_.name)
    val judged = incremental.limit(20).collect()
    judged.foreach { row =>
      val pid = row.getLong(0); val name = row.getString(1); val cluster = row.getString(2)
      byName.get(name).foreach { cands =>
        val np = Similarity.Facts(baseline((pid, name)))
        val scores = cands.map(c => c.vid -> result.model.score(Similarity.gamma(np, Similarity.Facts(c), result.stats))).toMap
        if (!cluster.contains("#new")) {
          val best = scores.values.max
          assert(math.abs(scores(cluster) - best) < 1e-9, s"$pid/$name not argmax")
        }
      }
    }
  }
}

/** Rebuilds new-occurrence profiles by hand on the driver, without
  * [[Incremental]] or [[Profiles]], as an independent reference for the
  * argmax cross-check and the fold.
  */
object Baseline2 {
  import org.apache.spark.sql.SparkSession

  def newProfiles(spark: SparkSession, papersNew: DataFrame, authNew: DataFrame): Map[(Long, String), Model.VertexProfile] = {
    import spark.implicits._
    val papers = papersNew.select("pid", "title", "venue", "year").as[(Long, Seq[String], String, Int)]
      .collect().map(p => p._1 -> p).toMap
    val namesOf = authNew.select("pid", "name").distinct().as[(Long, String)].collect()
      .groupBy(_._1).map { case (pid, rows) => pid -> rows.map(_._2).sorted }
    (for {
      (pid, names) <- namesOf.toSeq
      (_, title, venue, year) <- papers.get(pid).toSeq
      name <- names
    } yield {
      val vid = s"$name#new$pid"
      val co = names.filterNot(_ == name)
      val cliques = for (i <- co.indices; j <- (i + 1) until co.size) yield s"${co(i)}\u0001${co(j)}"
      (pid, name) -> Model.VertexProfile(
        vid = vid,
        name = name,
        pids = Seq(pid),
        wordYears = title.map(w => (w, year)),
        venues = Seq(venue),
        cliques = cliques,
        wl = WlKernel.features(vid, name, Map.empty, Map.empty, 2),
      )
    }).toMap
  }
}
