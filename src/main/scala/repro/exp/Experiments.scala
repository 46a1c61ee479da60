package repro.exp

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.json4s.{CustomSerializer, DefaultFormats, Formats}
import org.json4s.JsonDSL._
import org.json4s.jackson.Serialization
import repro.core._
import repro.core.Model.Metrics
import repro.baselines._
import repro.dblp.DblpSynth

/** The paper's evaluation tables (II–VI): each table is the rows one
  * function returns, and [[write]] records them as `BENCH_<table>.json`. The
  * job `repro.jobs.Tables` and the bench suites under `bench/` both call
  * these; EXPERIMENTS.md sets the recorded rows next to the paper's numbers.
  */
object Experiments {

  final case class Corpus(
      papers: DataFrame,
      auth: DataFrame,
      evalNames: DataFrame,
      cfg: DblpSynth.Config,
  )

  def corpus(spark: SparkSession, sf: Double, seed: Long = 42L): Corpus = {
    val cfg = DblpSynth.Config(sf = sf, seed = seed)
    val (p, a) = DblpSynth.generate(spark, cfg)
    val papers = p.cache(); val auth = a.cache()
    papers.count(); auth.count() // materialise before timing anything
    Corpus(papers, auth, Evaluation.ambiguousNames(auth).cache(), cfg)
  }

  /** Deterministic paper subsample (Table V / Fig 5 data-scale axis), cached;
    * `c` itself at fraction 1.0.
    */
  def subsample(c: Corpus, fraction: Double): Corpus = {
    if (fraction >= 1.0) return c
    val keep = c.papers
      .filter(pmod(hash(col("pid"), lit(17)), lit(1000)) < (fraction * 1000).toInt)
      .select("pid")
    val papers = c.papers.join(keep, Seq("pid")).cache()
    val auth = c.auth.join(keep, Seq("pid")).cache()
    papers.count(); auth.count()
    Corpus(papers, auth, Evaluation.ambiguousNames(auth).cache(), c.cfg)
  }

  /** Runs `body` and returns its value with its wall time in seconds. */
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val v = body
    (v, (System.nanoTime() - t0) / 1e9)
  }

  /** Pairwise micro metrics of `assignment` over the corpus's testing names. */
  def evaluate(spark: SparkSession, c: Corpus, assignment: DataFrame): Metrics =
    Evaluation.pairwiseMicro(spark, assignment, c.auth, Some(c.evalNames))

  // ---------------------------------------------------------------- Table II

  final case class NameStats(name: String, authors: Long, papers: Long)

  /** Descriptive statistics of the testing (ambiguous-name) subset: per name,
    * the number of true authors and papers — the analogue of Table II.
    */
  def tableII(spark: SparkSession, c: Corpus): Seq[NameStats] = {
    import spark.implicits._
    c.auth
      .join(c.evalNames, Seq("name"))
      .groupBy("name")
      .agg(countDistinct("authorId").as("authors"), countDistinct("pid").as("papers"))
      .orderBy(desc("authors"), col("name"))
      .as[NameStats]
      .collect()
      .toSeq
  }

  // --------------------------------------------------------------- Table III

  final case class NamedMetrics(algorithm: String, group: String, m: Metrics)

  /** One IUAD run and its SCN-only and GCN metrics; Tables III and IV share it. */
  final case class IuadRun(result: Iuad.Result, scn: Metrics, gcn: Metrics)

  def runIuad(spark: SparkSession, c: Corpus, cfg: Iuad.Config = Iuad.Config()): IuadRun = {
    val r = Iuad.run(spark, c.papers, c.auth, cfg)
    IuadRun(r, evaluate(spark, c, r.scnAssignment), evaluate(spark, c, r.assignment))
  }

  def unsupervisedClusterers: Seq[Baselines.NameClusterer] =
    Seq(Unsupervised.Anon(), Unsupervised.NetE(), Unsupervised.AminerB(), Unsupervised.Ghost())

  def runUnsupervised(spark: SparkSession, c: Corpus, clusterer: Baselines.NameClusterer): Metrics =
    evaluate(spark, c, Baselines.run(spark, c.papers, c.auth, clusterer, c.evalNames))

  /** Table III's supervised rows: the labelled pairs are built once and
    * cross-predicted by every algorithm of [[Supervised.Algorithms]].
    */
  def runSupervised(spark: SparkSession, c: Corpus): Seq[NamedMetrics] = {
    val pairs = Supervised.labeledPairs(spark, c.papers, c.auth, c.evalNames)
    Supervised.Algorithms.map(a => NamedMetrics(a.label, "Supervised", Supervised.crossPredict(pairs, a.key)))
  }

  /** All nine Table III rows; IUAD's is the GCN of the given run on `c`. */
  def tableIII(spark: SparkSession, c: Corpus, iuad: IuadRun): Seq[NamedMetrics] = {
    val sup = runSupervised(spark, c)
    val unsup = unsupervisedClusterers.map { cl =>
      NamedMetrics(cl.id, "Unsupervised", runUnsupervised(spark, c, cl))
    }
    sup ++ unsup :+ NamedMetrics("IUAD", "Our", iuad.gcn)
  }

  // ---------------------------------------------------------------- Table IV

  final case class StageEffect(scn: Metrics, gcn: Metrics)

  def tableIV(iuad: IuadRun): StageEffect = StageEffect(iuad.scn, iuad.gcn)

  // ----------------------------------------------------------------- Table V

  /** `quality` is IUAD's SCN and GCN metrics at this fraction (Fig. 5); the
    * baselines are timed only.
    */
  final case class TimingRow(
      algorithm: String,
      fraction: Double,
      secondsPerName: Double,
      quality: Option[StageEffect],
  )

  /** Average disambiguation time per testing name at increasing data
    * fractions. Every method is charged the wall time of its whole run,
    * materialised, divided by the number of testing names: a baseline's
    * `Baselines.run` over the testing names, and IUAD's two-stage pipeline
    * over all names (so IUAD's charge is an upper bound). IUAD's metrics are
    * computed outside the timed span.
    */
  def tableV(
      spark: SparkSession,
      c: Corpus,
      fractions: Seq[Double] = Seq(0.2, 0.4, 0.6, 0.8, 1.0),
      iuadCfg: Iuad.Config = Iuad.Config(),
  ): Seq[TimingRow] = {
    fractions.flatMap { f =>
      val sub = subsample(c, f)
      val nEval = math.max(1L, sub.evalNames.count())
      val baselineRows = unsupervisedClusterers.map { cl =>
        val (_, secs) = timed(Baselines.run(spark, sub.papers, sub.auth, cl, sub.evalNames).count())
        TimingRow(cl.id, f, secs / nEval, None)
      }
      val (r, secs) = timed {
        val r = Iuad.run(spark, sub.papers, sub.auth, iuadCfg)
        r.assignment.count() // force the full pipeline
        r
      }
      val quality = StageEffect(evaluate(spark, sub, r.scnAssignment), evaluate(spark, sub, r.assignment))
      if (sub ne c) Seq(sub.papers, sub.auth, sub.evalNames).foreach(_.unpersist())
      baselineRows :+ TimingRow("IUAD", f, secs / nEval, Some(quality))
    }
  }

  // ---------------------------------------------------------------- Table VI

  final case class IncrementalRow(
      nNew: Long,
      base: Metrics,     // metrics on part 1 only (before incremental)
      combined: Metrics, // metrics on all data after incremental judging
      avgMsPerPaper: Double,
  )

  /** Incremental manner analysis: hold out the `nNew` newest papers touching
    * a testing name, build the GCN on the rest, judge the held-out papers one
    * by one with the learned model.
    */
  def tableVI(
      spark: SparkSession,
      c: Corpus,
      sizes: Seq[Int] = Seq(100, 200, 300),
      cfg: Iuad.Config = Iuad.Config(),
  ): Seq[IncrementalRow] = {
    import spark.implicits._
    val evalPids = c.auth.join(c.evalNames, Seq("name")).select("pid").distinct()
    val newestEval = c.papers.join(evalPids, Seq("pid"))
      .orderBy(desc("year"), desc("pid")).select("pid").as[Long].collect()

    sizes.map { n =>
      val held = newestEval.take(math.min(n, newestEval.length)).toSet
      val papersOld = c.papers.filter(!col("pid").isInCollection(held)).cache()
      val authOld = c.auth.filter(!col("pid").isInCollection(held)).cache()
      val papersNew = c.papers.filter(col("pid").isInCollection(held))
      val authNew = c.auth.filter(col("pid").isInCollection(held))

      val r = Iuad.run(spark, papersOld, authOld, cfg)
      val base = Evaluation.pairwiseMicro(spark, r.assignment, authOld, Some(c.evalNames))

      val clusters = Incremental.clusterProfiles(spark, r.profiles, r.mapping).cache()
      clusters.count()
      val t0 = System.nanoTime()
      val judged = Incremental
        .disambiguate(spark, clusters, papersNew, authNew, r.model, r.stats, cfg.delta, cfg.wlIters)
        .cache()
      val nOcc = judged.count()
      val wallMs = (System.nanoTime() - t0) / 1e6
      val combinedAssign = r.assignment.unionByName(judged.select("pid", "name", "cluster"))
      val combined = evaluate(spark, c, combinedAssign)
      papersOld.unpersist(); authOld.unpersist(); clusters.unpersist()
      IncrementalRow(held.size.toLong, base, combined, wallMs / math.max(1L, nOcc))
    }
  }

  // ------------------------------------------------------------------ output

  /** Metrics as their counts plus the four micro measures. */
  private object MetricsJson extends CustomSerializer[Metrics](_ => (PartialFunction.empty, {
    case m: Metrics =>
      ("tp" -> m.tp) ~ ("fp" -> m.fp) ~ ("fn" -> m.fn) ~ ("tn" -> m.tn) ~
        ("accuracy" -> m.accuracy) ~ ("precision" -> m.precision) ~ ("recall" -> m.recall) ~ ("f1" -> m.f1)
  }))

  private final case class Report(
      table: String,
      sf: Double,
      seed: Long,
      cores: Int,
      shufflePartitions: Int,
      wallS: Double,
      rows: Seq[AnyRef],
  )

  /** Writes `rows` of `table` (II..VI), measured on `c` in `wallS` seconds,
    * to `dir/BENCH_<table>.json` together with the corpus's scale factor and
    * seed and the session's cores and shuffle partitions.
    */
  def write(table: String, c: Corpus, wallS: Double, rows: Seq[AnyRef], dir: File): File = {
    val spark = c.papers.sparkSession
    val report = Report(
      table, c.cfg.sf, c.cfg.seed, spark.sparkContext.defaultParallelism,
      spark.conf.get("spark.sql.shuffle.partitions").toInt, wallS, rows,
    )
    implicit val formats: Formats = DefaultFormats + MetricsJson
    val out = new File(dir, s"BENCH_$table.json")
    Files.write(out.toPath, (Serialization.writePretty(report) + "\n").getBytes(StandardCharsets.UTF_8))
    out
  }
}
