package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import Model._

/** Incremental single-paper disambiguation (§V-E).
  *
  * A new paper's author occurrence is an isolated vertex v^a; we compute its
  * similarity vector against every same-name GCN cluster, score with the
  * *already learned* model (no re-training) and attach to the argmax cluster
  * iff its score clears δ — otherwise the occurrence opens a new cluster.
  */
object Incremental {

  /** One GCN cluster folded into a single profile (members merged). */
  def clusterProfiles(
      spark: SparkSession,
      profiles: Dataset[VertexProfile],
      mapping: DataFrame,
  ): Dataset[VertexProfile] = {
    import spark.implicits._
    val vidToCluster = mapping
      .select(col("vid").as("mvid"), col("cluster"))
      .as[(String, String)]
    profiles
      .joinWith(vidToCluster, profiles("vid") === vidToCluster("mvid"))
      .map { case (p, (_, cluster)) => (cluster, p) }
      .groupByKey(_._1)
      .mapGroups { (cid, it) => Profiles.merge(cid, it.map(_._2).toSeq) }
  }

  /** Judge every new (paper, name) occurrence on the driver: new papers
    * arrive a few at a time, so their rows are collected, each occurrence
    * ([[Vid.newOccurrence]]) is profiled by [[Profiles.of]] with no SCN
    * edges, and only the clusters of the names seen are read. An occurrence
    * whose paper has no row in `newPapers` is not judged.
    *
    * @return (pid, name, cluster, bestScore, nanos): bestScore is NaN when
    *         the name has no cluster; nanos times the occurrence's profile
    *         and scoring
    */
  def disambiguate(
      spark: SparkSession,
      gcnClusters: Dataset[VertexProfile],
      newPapers: DataFrame,
      newAuthorships: DataFrame,
      model: Em.EmModel,
      stats: Similarity.GlobalStats,
      delta: Double,
      wlIters: Int = 2,
  ): DataFrame = {
    import spark.implicits._
    val namesOf = newAuthorships.select("pid", "name").as[(Long, String)].collect()
      .groupBy(_._1).map { case (pid, occ) => pid -> occ.map(_._2).distinct.toSeq }
    val papers = newPapers.select("pid", "title", "venue", "year").as[(Long, Seq[String], String, Int)]
      .collect().filter(p => namesOf.contains(p._1))
    val names = papers.flatMap(p => namesOf(p._1)).toSet
    val clustersOf = gcnClusters.filter(col("name").isInCollection(names)).collect()
      .groupBy(_.name).map { case (n, cs) => n -> cs.map(c => (c.vid, Similarity.Facts(c))) }

    val judged = for {
      (pid, title, venue, year) <- papers.toSeq
      onPaper = namesOf(pid)
      name <- onPaper
    } yield {
      val t0 = System.nanoTime()
      val vid = Vid.newOccurrence(name, pid)
      val paper = Occurrence(vid, name, pid, title, venue, year, onPaper).paper
      val facts = Similarity.Facts(Profiles.of(vid, name, Seq(paper), ScnBuilder.Graph.empty, wlIters))
      val clusters = clustersOf.getOrElse(name, Array.empty[(String, Similarity.Facts)])
      // A strictly higher score wins; equal scores go to the smaller cluster id.
      val (bestScore, best) = clusters.foldLeft((Double.NegativeInfinity, vid)) { case ((bs, bc), (cid, cf)) =>
        val s = model.score(Similarity.gamma(facts, cf, stats))
        if (s > bs || (s == bs && cid < bc)) (s, cid) else (bs, bc)
      }
      val chosen = if (clusters.nonEmpty && bestScore >= delta) best else vid
      (pid, name, chosen, if (clusters.isEmpty) Double.NaN else bestScore, System.nanoTime() - t0)
    }
    judged.toDF("pid", "name", "cluster", "bestScore", "nanos")
  }
}
