package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.util.Stage
import Model._

/** End-to-end IUAD pipeline (Algorithm 1).
  *
  * Stage I: [[ScnBuilder]] mines η-SCRs, builds their instance graph on the
  * driver and assigns every (name, paper) occurrence to an SCN vertex.
  * Stage II: [[Profiles]] + [[Similarity]] produce candidate-pair similarity
  * vectors; [[Em]] learns the generative model on a 10 % sample augmented
  * with split-vertex matched pairs (§V-F.2); [[GcnBuilder]] scores all pairs
  * distributed and merges those with log-odds ≥ δ.
  */
object Iuad {

  /** δ = 25 was calibrated once on the synthetic corpus (δ-sweep in
    * DebugGcn): log-odds below ~20 admit singleton pairs whose only evidence
    * is one shared venue; the paper likewise tunes its pre-defined δ.
    */
  final case class Config(
      eta: Int = 3,
      wlIters: Int = 2,
      delta: Double = 25.0,
      sampleFrac: Double = 0.1,
      minTrainPairs: Int = 200,
      splitMinPapers: Int = 6,
      splitMaxVertices: Int = 300,
      seed: Long = 7L,
      em: Em.Config = Em.Config(),
  )

  final case class Result(
      scn: Scn,
      profiles: Dataset[VertexProfile], // not cached: each read runs the fold
      stats: Similarity.GlobalStats,
      pairs: Dataset[PairGamma],
      model: Em.EmModel,
      scored: Dataset[ScoredPair],
      mapping: DataFrame,        // (vid, name, cluster)
      assignment: DataFrame,     // GCN:  (pid, name, cluster)
      scnAssignment: DataFrame,  // SCN-only: (pid, name, cluster=vid)
  )

  /** Random halves of the prolific SCN vertices chosen for balancing
    * (§V-F.2), one per [[Vid.half]]. Halves are profiled by the same
    * [[Profiles.fold]] as SCN vertices; they have no SCN edges, so their WL
    * ego graph is the bare name.
    */
  def splitHalves(
      spark: SparkSession,
      scn: Scn,
      papers: DataFrame,
      authorships: DataFrame,
      cfg: Config,
  ): Array[VertexProfile] = {
    import spark.implicits._
    // vertexPapers has one row per (vid, pid), so a vertex's rows are its papers.
    val chosen = scn.vertexPapers
      .groupBy("vid")
      .count()
      .where(col("count") >= cfg.splitMinPapers)
      .orderBy(abs(hash(col("vid"), lit(cfg.seed))), col("vid"))
      .limit(cfg.splitMaxVertices)
      .select("vid")
      .as[String]
      .collect()
    if (chosen.isEmpty) return Array.empty

    val halves = scn.vertexPapers
      .filter(col("vid").isInCollection(chosen))
      .withColumn("vid", Vid.half(col("vid"), col("pid"), cfg.seed))
    Profiles.fold(spark, halves, papers, authorships, ScnBuilder.Graph.empty, cfg.wlIters).collect()
  }

  /** Matched training pairs: the γ of the two halves of each split vertex
    * (balances the heavy unmatched majority, §V-F.2).
    */
  def splitVertexPairs(
      spark: SparkSession,
      scn: Scn,
      papers: DataFrame,
      authorships: DataFrame,
      stats: Similarity.GlobalStats,
      cfg: Config,
  ): Array[Array[Double]] =
    splitHalves(spark, scn, papers, authorships, cfg)
      .groupBy(p => Vid.parent(p.vid))
      .valuesIterator
      .collect { case Array(a, b) => Similarity.gamma(Similarity.Facts(a), Similarity.Facts(b), stats) }
      .toArray

  def run(spark: SparkSession, papers: DataFrame, authorships: DataFrame, cfg: Config = Config()): Result = {
    import spark.implicits._

    // Stage I — SCN.
    val scn = ScnBuilder.build(spark, authorships, cfg.eta)
    val scnAssignment = scn.vertexPapers.select(col("pid"), col("name"), col("vid").as("cluster"))

    // Stage II — profiles, similarities. The pairs pass is the only reader of
    // `profiles` here, so only its output is cached.
    val stats = Similarity.globalStats(spark, papers)
    val profiles = Profiles.build(spark, scn, papers, authorships, cfg.wlIters)
    val pairs = Stage.materialise(Similarity.candidatePairs(spark, profiles, stats))

    // Training sample (10 %) + split-vertex matched pairs.
    val nPairs = pairs.count()
    val frac =
      if (nPairs == 0L) 0.0
      else math.min(1.0, math.max(cfg.sampleFrac, cfg.minTrainPairs.toDouble / nPairs))
    val sample = pairs.sample(withReplacement = false, frac, cfg.seed).map(_.g).collect()
    val known = splitVertexPairs(spark, scn, papers, authorships, stats, cfg)

    val model = Em.fit(sample, cfg.em, known)

    // Score all pairs distributed; merge accepted ones.
    val scored = GcnBuilder.scorePairs(spark, pairs, model)
    val mapping = GcnBuilder.clusterMapping(spark, scn.vertices, scored, cfg.delta)
    val assignment = GcnBuilder.assignment(scn.vertexPapers, mapping)

    Result(scn, profiles, stats, pairs, model, scored, mapping, assignment, scnAssignment)
  }
}
