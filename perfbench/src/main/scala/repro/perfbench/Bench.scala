package repro.perfbench

import org.apache.spark.sql.{DataFrame, Dataset, Row, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.immutable.ListMap
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import repro.core._
import repro.core.Model._
import repro.dblp.DblpSynth

/** The benchmark procedure shared by every workload.
  *
  * Set-up follows the Table VI protocol: it generates the corpus and holds out
  * its newest papers that touch a testing name. Both modes disambiguate the
  * rest, the base corpus, with the first `Iuad.run` of their JVM, as a
  * spark-submit user pays it; so for one seed both modes must produce the same
  * assignment fingerprint.
  *
  * The untraced run (`--trace 0`) sets up three times (the median is
  * reported) and times `Iuad.run` through a materialised GCN assignment.
  *
  * The traced run (`--trace 1`) rebuilds `Iuad.run` from the same public calls
  * inside [[Tracer]] spans, evaluates, builds the cluster profiles, judges all
  * held-out papers in one `Incremental.disambiguate` call, and then runs a
  * closed loop with one client in which each request is one held-out paper
  * passed alone to `Incremental.disambiguate`.
  *
  * Evaluation, quality and incremental judging are traced only: their times
  * vary too much between runs to carry a bound, and an untraced run has to
  * stay short (see README.md).
  */
object Bench {

  /** A generated corpus, its testing names (≥ 2 true authors) and its split
    * into base and held-out papers.
    */
  final case class Corpus(
      papers: DataFrame,
      auth: DataFrame,
      evalNames: DataFrame,
      heldPids: Seq[Long],
      held: DataFrame,
      basePapers: DataFrame,
      baseAuth: DataFrame,
      newPapers: DataFrame,
      newAuth: DataFrame,
  ) {
    def frames: Seq[DataFrame] = Seq(papers, auth, evalNames, held, basePapers, baseAuth, newPapers, newAuth)
  }

  /** Held-out papers per corpus. Table VI judges 100 to 300; 50 feed the
    * request loop and the batch call and leave 96 % of the corpus as base.
    */
  val HeldOut = 50

  /** Generates and caches the corpus and holds out its `nHeld` newest papers
    * that touch a testing name (newest first, ties by pid), as
    * `Experiments.tableVI` does.
    */
  def setUp(spark: SparkSession, cfg: DblpSynth.Config, nHeld: Int): Corpus = {
    import spark.implicits._
    val (p, a) = DblpSynth.generate(spark, cfg)
    val papers = p.cache()
    val auth = a.cache()
    val evalNames = Evaluation.ambiguousNames(auth).cache()
    val heldPids = papers
      .join(auth.join(evalNames, Seq("name")).select("pid").distinct(), Seq("pid"))
      .orderBy(desc("year"), desc("pid"))
      .select("pid").as[Long].take(nHeld).toSeq
    val held = heldPids.toDF("pid").cache()
    def part(df: DataFrame, keep: Boolean) = df.join(held, Seq("pid"), if (keep) "left_semi" else "left_anti").cache()
    val c = Corpus(papers, auth, evalNames, heldPids, held,
      part(papers, keep = false), part(auth, keep = false), part(papers, keep = true), part(auth, keep = true))
    c.frames.foreach(_.count())
    c
  }

  val PipelineSpans: Seq[String] =
    Seq("scn", "stats", "profiles", "pairs", "em.sample", "em.split", "em.fit", "score", "cluster", "assign")

  /** What the traced run collected of its steps' outputs, for the checks and
    * counts: collecting inside a span costs about what counting does, while
    * a later query over the pipeline's lineage costs seconds of planning.
    */
  final case class Traced(result: Iuad.Result, scnRows: Array[Checks.Row3], gcnRows: Array[Checks.Row3],
      accepted: Array[(String, Boolean)])

  /** `Iuad.run` rebuilt from the same public calls, one span per step. Each
    * step's output is cached and materialised inside its span, so its work is
    * charged to it and not to the first later step that reads it.
    */
  def tracedRun(spark: SparkSession, tr: Tracer, papers: DataFrame, auth: DataFrame, cfg: Iuad.Config): Traced = {
    import spark.implicits._
    def counted[T](name: String, ds: Dataset[T]): Dataset[T] = { val c = ds.cache(); tr.rows(name, c.count()); c }

    val (scn, scnRows) = tr.span("scn") {
      val s = ScnBuilder.build(spark, auth, cfg.eta)
      val edges = s.edges.cache()
      edges.count()
      val rows = Checks.rowsOf(s.vertexPapers.select(col("pid"), col("name"), col("vid").as("cluster")))
      (s.copy(vertices = counted("scn", s.vertices), edges = edges), rows)
    }
    val stats = tr.span("stats") {
      val st = Similarity.globalStats(spark, papers)
      tr.rows("stats", st.wordFreq.size.toLong + st.venueFreq.size)
      st
    }
    val profiles = tr.span("profiles")(counted("profiles", Profiles.build(spark, scn, papers, auth, cfg.wlIters)))
    val pairs = tr.span("pairs")(counted("pairs", Similarity.candidatePairs(spark, profiles, stats)))
    // Same sample size rule as Iuad.run.
    val sample = tr.span("em.sample") {
      val nPairs = pairs.count()
      val frac =
        if (nPairs == 0L) 0.0
        else math.min(1.0, math.max(cfg.sampleFrac, cfg.minTrainPairs.toDouble / nPairs))
      val s = pairs.sample(withReplacement = false, frac, cfg.seed).map(_.g.toArray).collect()
      tr.rows("em.sample", s.length.toLong)
      s
    }
    val known = tr.span("em.split") {
      val k = Iuad.splitVertexPairs(spark, scn, papers, auth, stats, cfg)
      tr.rows("em.split", k.length.toLong)
      k
    }
    val model = tr.span("em.fit") {
      tr.rows("em.fit", sample.length.toLong + known.length)
      Em.fit(sample, cfg.em, known)
    }
    val (scored, accepted) = tr.span("score") {
      val sc = GcnBuilder.scorePairs(spark, pairs, model).cache()
      val acc = sc.select(col("name"), col("score") >= cfg.delta).as[(String, Boolean)].collect()
      tr.rows("score", acc.length.toLong)
      (sc, acc)
    }
    val mapping = tr.span("cluster")(counted("cluster", GcnBuilder.clusterMapping(spark, scn.vertices, scored, cfg.delta)))
    val (assignment, gcnRows) = tr.span("assign") {
      val a = GcnBuilder.assignment(scn.vertexPapers, mapping).cache()
      val rows = Checks.rowsOf(a)
      tr.rows("assign", rows.length.toLong)
      (a, rows)
    }
    val scnAssignment = scn.vertexPapers.select(col("pid"), col("name"), col("vid").as("cluster"))
    Traced(Iuad.Result(scn, profiles, stats, pairs, model, scored, mapping, assignment, scnAssignment),
      scnRows, gcnRows, accepted)
  }

  // ------------------------------------------------------------------ helpers

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    s(math.min(s.size - 1, math.max(0, math.ceil(p * s.size).toInt - 1)))
  }

  def cachedBytes(spark: SparkSession): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  def total(m: Metrics): Long = m.tp + m.fp + m.fn + m.tn

  def occurrences(auth: DataFrame): Set[(Long, String)] =
    auth.select("pid", "name").collect().map(x => (x.getLong(0), x.getString(1))).toSet

  def log(msg: String): Unit = Console.err.println(s"[perfbench] $msg")

  /** Everything one run prints: metrics, checks and the report. */
  final class Out {
    val metrics = mutable.LinkedHashMap.empty[String, ListMap[String, Any]]
    val checks = mutable.ArrayBuffer.empty[ListMap[String, Any]]
    val report = mutable.LinkedHashMap.empty[String, Any]
    var operations = 0

    def metric(name: String, value: Double, unit: String): Unit =
      metrics(name) = ListMap("value" -> value, "unit" -> unit)

    /** A failed check counts as a failed operation. */
    def check(name: String, outcome: Option[String]): Unit = {
      outcome.foreach(m => log(s"CHECK FAILED $name: $m"))
      checks += ListMap("check" -> name, "ok" -> outcome.isEmpty, "detail" -> outcome.getOrElse(""))
      operations += 1
    }

    def failed: Int = checks.count(_("ok") == false)
  }

  // -------------------------------------------------------------------- run

  def run(spark: SparkSession, a: Main.Args, cores: Int, sessionS: Double): (ListMap[String, Any], ListMap[String, Any]) = {
    val cfg = a.workload.corpus(a.seed)
    val out = new Out
    if (a.trace) perLayer(spark, a, cores, cfg, out) else endToEnd(spark, sessionS, cfg, out)

    out.report("workload") = ListMap("name" -> a.workload.name, "seed" -> a.seed, "seconds" -> a.seconds, "trace" -> a.trace)
    out.report("environment") = ListMap(
      "cores" -> cores,
      "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "heap_mb" -> Runtime.getRuntime.maxMemory() / (1L << 20),
      "spark_version" -> spark.version,
      "java_version" -> System.getProperty("java.version"),
      "java_vm" -> System.getProperty("java.vm.name"),
      "scala_version" -> scala.util.Properties.versionNumberString,
    )
    out.report("generator") = ListMap(cfg.productElementNames.toSeq.zip(cfg.productIterator.toSeq): _*) ++ ListMap(
      "nPapers" -> cfg.nPapers, "nAuthors" -> cfg.nAuthors, "nTeams" -> cfg.nTeams,
      "nComms" -> cfg.nComms, "nAmbNames" -> cfg.nAmbNames)
    out.report("iuad_config") = Iuad.Config()
    out.report("checks") = out.checks.toSeq

    val result = ListMap(
      "correct" -> (out.failed == 0),
      "attempted" -> out.operations,
      "failed" -> out.failed,
      "metrics" -> out.metrics,
    )
    (ListMap(out.report.toSeq: _*), result)
  }

  def endToEnd(spark: SparkSession, sessionS: Double, cfg: DblpSynth.Config, out: Out): Unit = {
    // Set-up repeated so its median is steady; only the last copy stays cached.
    val setUps = (1 to 3).map(_ => timed(setUp(spark, cfg, HeldOut)))
    setUps.init.foreach(_._1.frames.foreach(_.unpersist(blocking = true)))
    val c = setUps.last._1
    val baseline = cachedBytes(spark)
    log(f"session $sessionS%.2f s, corpus set-up ${setUps.map(_._2).map(x => f"$x%.2f").mkString(" ")} s")

    System.gc() // so the set-up's garbage is not collected inside the timed run
    val (assignment, disambiguateS) = timed {
      val asg = Iuad.run(spark, c.basePapers, c.baseAuth, Iuad.Config()).assignment.cache()
      asg.count()
      asg
    }
    log(f"Iuad.run $disambiguateS%.2f s")
    val cacheMb = (cachedBytes(spark) - baseline) / 1e6
    out.operations += 1

    val rows = Checks.rowsOf(assignment)
    out.check("gcn_one_cluster_per_occurrence", Checks.oneClusterPerOccurrence(rows, occurrences(c.baseAuth), "GCN"))

    out.metric("setup_s", sessionS + median(setUps.map(_._2)), "s")
    out.metric("disambiguate_s", disambiguateS, "s")
    out.metric("cache_mb", cacheMb, "MB")

    out.report("sizes") = ListMap(
      "papers" -> cfg.nPapers,
      "held_out_papers" -> c.heldPids.size,
      "base_occurrences" -> rows.length,
      "gcn_clusters" -> rows.map(_._3).distinct.length,
    )
    out.report("fingerprints") = ListMap("gcn" -> Checks.fingerprint(rows))
    out.report("times_s") = ListMap(
      "session" -> sessionS, "corpus_setups" -> setUps.map(_._2), "disambiguate" -> disambiguateS)
  }

  def perLayer(spark: SparkSession, a: Main.Args, cores: Int, cfg: DblpSynth.Config, out: Out): Unit = {
    val iuad = Iuad.Config()
    val c = setUp(spark, cfg, HeldOut)
    val tr = new Tracer(spark.sparkContext)
    spark.sparkContext.addSparkListener(tr)

    val (traced, tracedS) = timed(tracedRun(spark, tr, c.basePapers, c.baseAuth, iuad))
    val r = traced.result
    val traceSpans = tr.snapshot().toMap
    val covered = PipelineSpans.map(n => traceSpans(n).wallNs / 1e9).sum
    log(f"traced Iuad.run $tracedS%.2f s, spans cover $covered%.2f s")
    out.operations += 1

    val (scnM, gcnM) = tr.span("eval") {
      (Evaluation.pairwiseMicro(spark, r.scnAssignment, c.baseAuth, Some(c.evalNames)),
       Evaluation.pairwiseMicro(spark, r.assignment, c.baseAuth, Some(c.evalNames)))
    }
    tr.rows("eval", total(scnM) + total(gcnM))
    val clusters = tr.span("incr.clusters") {
      val cl = Incremental.clusterProfiles(spark, r.profiles, r.mapping).cache()
      tr.rows("incr.clusters", cl.count())
      cl
    }
    def judge(papers: DataFrame, auth: DataFrame): DataFrame =
      Incremental.disambiguate(spark, clusters, papers, auth, r.model, r.stats, iuad.delta, iuad.wlIters)
        .select("pid", "name", "cluster")
    val judgedRows = tr.span("incr.batch") {
      val rows = Checks.rowsOf(judge(c.newPapers, c.newAuth))
      tr.rows("incr.batch", rows.length.toLong)
      rows
    }
    out.operations += 4
    log("evaluation, cluster profiles and batch judging done")

    // Closed loop, one client: each request is one held-out paper, judged
    // alone and collected before the next is sent. A request starts only if,
    // at the last request's pace, it ends within --seconds of the loop's
    // start; the first always runs.
    val paperRows = c.newPapers.collect()
    val authRows = c.newAuth.collect()
    def alone(rows: Array[Row], like: DataFrame, pid: Long): DataFrame =
      spark.createDataFrame(rows.filter(_.getAs[Long]("pid") == pid).toSeq.asJava, like.schema)
    val requestS = mutable.ArrayBuffer.empty[Double]
    val single = mutable.ArrayBuffer.empty[Checks.Row3]
    val loopStart = System.nanoTime()
    def fits = requestS.isEmpty || (System.nanoTime() - loopStart) / 1e9 + requestS.last <= a.seconds
    val pending = c.heldPids.iterator
    while (pending.hasNext && fits) {
      val pid = pending.next()
      val (rows, t) = timed(tr.span("incr.judge") {
        Checks.rowsOf(judge(alone(paperRows, c.newPapers, pid), alone(authRows, c.newAuth, pid)))
      })
      tr.rows("incr.judge", rows.length.toLong)
      requestS += t
      single ++= rows
    }
    out.operations += requestS.size
    log(f"${requestS.size} single-paper requests, median ${median(requestS.toSeq)}%.2f s")

    // ---------------------------------------------------------------- checks
    val tPost = System.nanoTime()
    val gcnRows = traced.gcnRows
    val scnRows = traced.scnRows
    val baseOcc = occurrences(c.baseAuth)
    out.check("scn_one_cluster_per_occurrence", Checks.oneClusterPerOccurrence(scnRows, baseOcc, "SCN"))
    out.check("gcn_one_cluster_per_occurrence", Checks.oneClusterPerOccurrence(gcnRows, baseOcc, "GCN"))
    out.check("judged_one_cluster_per_occurrence",
      Checks.oneClusterPerOccurrence(judgedRows, occurrences(c.newAuth), "judged"))
    out.check("scn_gcn_same_pair_total",
      if (total(scnM) == total(gcnM)) None else Some(s"SCN ${total(scnM)} vs GCN ${total(gcnM)} pairs"))
    out.check("pair_total_matches_oracle", Checks.pairTotal(spark, c.auth, c.held, total(gcnM)))
    // disambiguate never changes the clusters, so judging a paper alone must
    // give what the batch call gave it.
    val expected = judgedRows.filter(x => single.exists(_._1 == x._1)).toSet
    out.check("single_equals_batch",
      if (single.toSet == expected && single.size == expected.size) None
      else Some(s"${single.toSet.diff(expected).size} single-only, ${expected.diff(single.toSet).size} batch-only"))

    // --------------------------------------------------------------- metrics
    val spans = tr.snapshot().toMap
    // Per call for the request loop, totals otherwise. em.fit runs no Spark
    // jobs, so it has no Spark figures.
    def layer(name: String, perCall: Boolean = false, spark: Boolean = true): Unit = {
      val t = spans(name)
      val k = if (perCall) t.calls.toDouble else 1.0
      val wall = if (perCall) median(t.callNs.map(_ / 1e9).toSeq) else t.wallNs / 1e9
      val taskS = t.taskMs / 1e3 / k
      out.metric(s"$name.s", wall, "s")
      if (spark) {
        out.metric(s"$name.task_s", taskS, "s")
        out.metric(s"$name.util", taskS / (wall * cores), "ratio")
        out.metric(s"$name.jobs", t.jobs / k, "count")
        out.metric(s"$name.shuffle_mb", t.shuffleBytes / 1e6 / k, "MB")
      }
      out.metric(s"$name.rows", t.rows / k, "count")
    }
    (PipelineSpans ++ Seq("eval", "incr.clusters", "incr.batch")).foreach(n => layer(n, spark = n != "em.fit"))
    layer("incr.judge", perCall = true)

    val vertices = scnRows.map(_._3).distinct
    val nPairs = spans("pairs").rows
    val maxPerName = traced.accepted.groupBy(_._1).valuesIterator.map(_.length).max
    val accepted = traced.accepted.count(_._2)
    // Clusters per name, as Incremental.clusterProfiles builds them: one per
    // GCN cluster that holds a paper.
    val clustersPerName = gcnRows.map(x => (x._2, x._3)).distinct.groupBy(_._1).map { case (n, cs) => n -> cs.length }
    val namesOf = authRows.groupBy(_.getAs[Long]("pid")).map { case (p, xs) => p -> xs.map(_.getAs[String]("name")) }
    val judgedPids = single.map(_._1).distinct
    val gammaEvals = judgedPids.map(p => namesOf(p).map(clustersPerName.getOrElse(_, 0)).sum).sum
    log(f"checks and counts ${(System.nanoTime() - tPost) / 1e9}%.2f s")

    out.metric("trace.total_s", tracedS, "s")
    out.metric("trace.uncovered_s", tracedS - covered, "s")
    out.metric("scn.singleton_share", vertices.count(_.contains("#p")).toDouble / vertices.length, "ratio")
    out.metric("scn.f1", scnM.f1, "ratio")
    out.metric("pairs.max_per_name", maxPerName.toDouble, "count")
    out.metric("pairs.us_per_pair", spans("pairs").wallNs / 1e3 / nPairs, "us")
    out.metric("cluster.accepted", accepted.toDouble, "count")
    out.metric("cluster.accept_ratio", accepted.toDouble / nPairs, "ratio")
    out.metric("gcn.f1", gcnM.f1, "ratio")
    out.metric("incr.batch.ms_per_paper", spans("incr.batch").wallNs / 1e6 / c.heldPids.size, "ms")
    out.metric("incr.judge.p90_s", percentile(requestS.toSeq, 0.9), "s")
    out.metric("incr.judge.gamma_evals", gammaEvals.toDouble / judgedPids.size, "count")

    out.report("sizes") = ListMap(
      "papers" -> cfg.nPapers,
      "held_out_papers" -> c.heldPids.size,
      "base_occurrences" -> baseOcc.size,
      "held_out_occurrences" -> authRows.length,
      "testing_names" -> c.evalNames.count(),
      "base_vertices" -> spans("scn").rows,
      "base_vertices_with_papers" -> vertices.length,
      "base_pairs" -> nPairs,
      "accepted_pairs" -> accepted,
      "base_gcn_clusters" -> gcnRows.map(_._3).distinct.length,
      "single_paper_requests" -> requestS.size,
    )
    out.report("counts") = ListMap(
      "jobs" -> ListMap(spans.toSeq.sortBy(_._1).map { case (n, t) => n -> t.jobs }: _*),
      "rows" -> ListMap(spans.toSeq.sortBy(_._1).map { case (n, t) => n -> t.rows }: _*),
    )
    out.report("request_s") = requestS.toSeq
    out.report("fingerprints") = ListMap(
      "gcn" -> Checks.fingerprint(gcnRows), "scn" -> Checks.fingerprint(scnRows), "judged" -> Checks.fingerprint(judgedRows))
    out.report("quality") = ListMap("scn" -> scnM.toString, "gcn" -> gcnM.toString)
  }
}
