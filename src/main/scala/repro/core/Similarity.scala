package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.dblp.WordVectors
import repro.util.VectorOps
import Model._

/** The six similarity functions of §V-B and candidate-pair generation.
  *
  * γ1 normalised WL subgraph kernel          (Eq. 4)
  * γ2 co-author clique coincidence ratio     (Eq. 5)
  * γ3 research-interest cosine               (Eq. 6)
  * γ4 time consistency of rare keywords      (Eq. 7, decay e^{-α·minΔyear};
  *    the paper prints e^{+α·min(b)} but calls α a decay factor — see
  *    DESIGN.md §5.7)
  * γ5 representative-community overlap       (Eq. 8)
  * γ6 Adamic/Adar over venues                (Eq. 9)
  *
  * All denominators τ = min(#papers). 1/log(f) terms use max(f, 2) so a
  * frequency of 1 cannot blow up the sum (the paper is silent on f = 1).
  */
object Similarity {

  val NumFeatures = 6

  /** Corpus-level frequencies used by γ4 (FB) and γ6 (FH). */
  final case class GlobalStats(
      wordFreq: Map[String, Long],
      venueFreq: Map[String, Long],
      alpha: Double = 0.62,
  )

  /** Compute FB(b) and FH(h) from the papers table in one aggregation over
    * tagged (kind, key) rows: one per title word ("w") and one per paper's
    * venue ("v").
    */
  def globalStats(spark: SparkSession, papers: DataFrame, alpha: Double = 0.62): GlobalStats = {
    import spark.implicits._
    val counts = papers
      .select(lit("w").as("kind"), explode(col("title")).as("key"))
      .union(papers.select(lit("v").as("kind"), col("venue").as("key")))
      .groupBy("kind", "key")
      .agg(count(lit(1)).as("f"))
      .as[(String, String, Long)]
      .collect()
    def freq(kind: String): Map[String, Long] = counts.collect { case (`kind`, key, f) => key -> f }.toMap
    GlobalStats(freq("w"), freq("v"), alpha)
  }

  private def safeLogInv(f: Long): Double = 1.0 / math.log(math.max(f, 2L).toDouble)

  /** What γ reads of one vertex, built once per vertex: a name with k
    * vertices scores each of them against k−1 others.
    *
    * @param wlSelf      self-kernel of `wl`, the vertex's factor in Eq. 4's normaliser
    * @param center      mean vector of the distinct keywords (γ3); None without keywords
    * @param wordYears   keyword → the years of the papers containing it (γ4)
    * @param repVenue    most frequent venue, ties to the lexicographic min (γ5)
    * @param venueCounts venue → number of the vertex's papers there (γ5)
    * @param nVenues     number of venue entries, one per paper (γ5)
    * @param venues      the distinct venues (γ6)
    */
  final case class Facts(
      wl: Map[String, Int],
      wlSelf: Double,
      cliques: Set[String],
      center: Option[Array[Double]],
      wordYears: Map[String, Seq[Int]],
      repVenue: Option[String],
      venueCounts: Map[String, Int],
      nVenues: Int,
      venues: Set[String],
      nPapers: Int,
  )

  object Facts {
    def apply(p: VertexProfile): Facts = {
      val venueCounts = p.venues.groupBy(identity).map { case (v, vs) => (v, vs.size) }
      Facts(
        wl = p.wl,
        wlSelf = WlKernel.kernel(p.wl, p.wl),
        cliques = p.cliques.toSet,
        center = WordVectors.center(p.wordYears.map(_._1)),
        wordYears = p.wordYears.groupBy(_._1).view.mapValues(_.map(_._2)).toMap,
        repVenue = venueCounts.minByOption { case (v, c) => (-c, v) }.map(_._1),
        venueCounts = venueCounts,
        nVenues = p.venues.size,
        venues = p.venues.toSet,
        nPapers = p.nPapers,
      )
    }
  }

  private def tau(fi: Facts, fj: Facts): Double =
    math.max(1, math.min(fi.nPapers, fj.nPapers)).toDouble

  /** γ2: shared co-author cliques (triangles), scaled by 1/τ. */
  def cliqueCoincidence(fi: Facts, fj: Facts): Double =
    fi.cliques.intersect(fj.cliques).size / tau(fi, fj)

  /** γ3: cosine of mean keyword vectors, clamped at 0 so every feature is
    * non-negative (a negative cosine means "opposite interests" and carries
    * the same decision weight as orthogonality here).
    */
  def interestCosine(fi: Facts, fj: Facts): Double =
    (fi.center, fj.center) match {
      case (Some(a), Some(b)) => math.max(0.0, VectorOps.cosine(a, b))
      case _                  => 0.0
    }

  /** γ4: time-consistent use of rare keywords. */
  def timeConsistency(fi: Facts, fj: Facts, stats: GlobalStats): Double = {
    val common = fi.wordYears.keySet.intersect(fj.wordYears.keySet)
    val s = common.iterator.map { b =>
      val minDiff = (for (a <- fi.wordYears(b); c <- fj.wordYears(b)) yield math.abs(a - c)).min
      math.exp(-stats.alpha * minDiff) * safeLogInv(stats.wordFreq.getOrElse(b, 1L))
    }.sum
    s / tau(fi, fj)
  }

  /** γ5: cross *fractions* of each other's representative venue, in [0, 2].
    *
    * Eq. 8 divides raw counts by τ = min(#papers); at our singleton vertex
    * granularity τ = 1, so a lone paper in a prolific vertex's modal venue
    * would yield γ5 = #papers — an unbounded value that saturates the
    * exponential component and forces a merge on venue evidence alone
    * (observed: γ5 = 51 on a false pair). Normalising each count by its own
    * multiset size keeps Eq. 8's intent — mutual concentration in the other
    * side's representative venue — scale-free. See DESIGN.md §5.
    */
  def representativeCommunity(fi: Facts, fj: Facts): Double =
    (fi.repVenue, fj.repVenue) match {
      case (Some(hi), Some(hj)) =>
        val fracJ = fj.venueCounts.getOrElse(hi, 0).toDouble / fj.nVenues
        val fracI = fi.venueCounts.getOrElse(hj, 0).toDouble / fi.nVenues
        fracJ + fracI
      case _ => 0.0
    }

  /** γ6: Adamic/Adar over shared venues. */
  def researchCommunity(fi: Facts, fj: Facts, stats: GlobalStats): Double =
    fi.venues.intersect(fj.venues).iterator.map(h => safeLogInv(stats.venueFreq.getOrElse(h, 1L))).sum / tau(fi, fj)

  /** Full 6-dim similarity vector (γ1..γ6). */
  def gamma(fi: Facts, fj: Facts, stats: GlobalStats): Array[Double] =
    Array(
      WlKernel.normalized(fi.wl, fi.wlSelf, fj.wl, fj.wlSelf),
      cliqueCoincidence(fi, fj),
      interestCosine(fi, fj),
      timeConsistency(fi, fj, stats),
      representativeCommunity(fi, fj),
      researchCommunity(fi, fj, stats),
    )

  /** All candidate same-name vertex pairs with similarity vectors, computed
    * per name group ("per partition"), with each vertex's [[Facts]] built
    * once. A name with more than `maxPerName` (default 3,000) vertices keeps
    * only its `maxPerName` most prolific ones, to bound the quadratic
    * blow-up. The truncation is silent today: nothing records which names
    * lost vertices or how many pairs were dropped. ROADMAP item 1 counts it
    * in the diagnostics and item 6 replaces it with exact pruning.
    */
  def candidatePairs(
      spark: SparkSession,
      profiles: Dataset[VertexProfile],
      stats: GlobalStats,
      maxPerName: Int = 3000,
  ): Dataset[PairGamma] = {
    import spark.implicits._
    val bStats = spark.sparkContext.broadcast(stats)
    profiles
      .groupByKey(_.name)
      .flatMapGroups { (name, it) =>
        val all = it.toArray
        val vs =
          if (all.length <= maxPerName) all.sortBy(_.vid)
          else all.sortBy(p => (-p.nPapers, p.vid)).take(maxPerName).sortBy(_.vid)
        val fs = vs.map(Facts(_))
        for (i <- vs.indices.iterator; j <- (i + 1) until vs.length)
          yield PairGamma(name, vs(i).vid, vs(j).vid, gamma(fs(i), fs(j), bStats.value))
      }
  }
}
