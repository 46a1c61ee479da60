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

  /** Compute FB(b) and FH(h) from the papers table (oracle-checked). */
  def globalStats(spark: SparkSession, papers: DataFrame, alpha: Double = 0.62): GlobalStats = {
    import spark.implicits._
    val wf = papers
      .select(explode(col("title")).as("w"))
      .groupBy("w")
      .agg(count(lit(1)).as("f"))
      .as[(String, Long)]
      .collect()
      .toMap
    val vf = papers
      .groupBy(col("venue"))
      .agg(count(lit(1)).as("f"))
      .as[(String, Long)]
      .collect()
      .toMap
    GlobalStats(wf, vf, alpha)
  }

  private def safeLogInv(f: Long): Double = 1.0 / math.log(math.max(f, 2L).toDouble)

  private def tau(pi: VertexProfile, pj: VertexProfile): Double =
    math.max(1, math.min(pi.nPapers, pj.nPapers)).toDouble

  /** γ2: shared co-author cliques (triangles), scaled by 1/τ. */
  def cliqueCoincidence(pi: VertexProfile, pj: VertexProfile): Double = {
    val common = pi.cliques.toSet.intersect(pj.cliques.toSet).size
    common / tau(pi, pj)
  }

  /** γ3: cosine of mean keyword vectors, clamped at 0 so every feature is
    * non-negative (a negative cosine means "opposite interests" and carries
    * the same decision weight as orthogonality here).
    */
  def interestCosine(pi: VertexProfile, pj: VertexProfile): Double = {
    def center(p: VertexProfile): Option[Array[Double]] = {
      val ws = p.wordYears.map(_._1).distinct
      if (ws.isEmpty) None else Some(VectorOps.mean(ws.map(w => WordVectors.vector(w))))
    }
    (center(pi), center(pj)) match {
      case (Some(a), Some(b)) => math.max(0.0, VectorOps.cosine(a, b))
      case _                  => 0.0
    }
  }

  /** γ4: time-consistent use of rare keywords. */
  def timeConsistency(pi: VertexProfile, pj: VertexProfile, stats: GlobalStats): Double = {
    val yi = pi.wordYears.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val yj = pj.wordYears.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val common = yi.keySet.intersect(yj.keySet)
    val s = common.iterator.map { b =>
      val minDiff = (for (a <- yi(b); c <- yj(b)) yield math.abs(a - c)).min
      math.exp(-stats.alpha * minDiff) * safeLogInv(stats.wordFreq.getOrElse(b, 1L))
    }.sum
    s / tau(pi, pj)
  }

  /** Most frequent venue (ties: lexicographic min, so it is deterministic). */
  def representativeVenue(p: VertexProfile): Option[String] =
    if (p.venues.isEmpty) None
    else Some(p.venues.groupBy(identity).map { case (v, vs) => (v, vs.size) }.toSeq.sortBy { case (v, c) => (-c, v) }.head._1)

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
  def representativeCommunity(pi: VertexProfile, pj: VertexProfile): Double = {
    (representativeVenue(pi), representativeVenue(pj)) match {
      case (Some(hi), Some(hj)) =>
        val fracJ = pj.venues.count(_ == hi).toDouble / pj.venues.size
        val fracI = pi.venues.count(_ == hj).toDouble / pi.venues.size
        fracJ + fracI
      case _ => 0.0
    }
  }

  /** γ6: Adamic/Adar over shared venues. */
  def researchCommunity(pi: VertexProfile, pj: VertexProfile, stats: GlobalStats): Double = {
    val common = pi.venues.toSet.intersect(pj.venues.toSet)
    common.iterator.map(h => safeLogInv(stats.venueFreq.getOrElse(h, 1L))).sum / tau(pi, pj)
  }

  /** Full 6-dim similarity vector (γ1..γ6). */
  def gamma(pi: VertexProfile, pj: VertexProfile, stats: GlobalStats): Array[Double] =
    Array(
      WlKernel.normalized(pi.wl, pj.wl),
      cliqueCoincidence(pi, pj),
      interestCosine(pi, pj),
      timeConsistency(pi, pj, stats),
      representativeCommunity(pi, pj),
      researchCommunity(pi, pj, stats),
    )

  /** All candidate same-name vertex pairs with similarity vectors, computed
    * per name group ("per partition"). A name with more than `maxPerName`
    * (default 3,000) vertices keeps only its `maxPerName` most prolific ones,
    * to bound the quadratic blow-up. The truncation is silent today: nothing
    * records which names lost vertices or how many pairs were dropped.
    * ROADMAP item 3 replaces it with exact pruning or a count in the trace.
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
        val out = scala.collection.mutable.ArrayBuffer.empty[PairGamma]
        var i = 0
        while (i < vs.length) {
          var j = i + 1
          while (j < vs.length) {
            out += PairGamma(name, vs(i).vid, vs(j).vid, gamma(vs(i), vs(j), bStats.value).toSeq)
            j += 1
          }
          i += 1
        }
        out.iterator
      }
  }
}
