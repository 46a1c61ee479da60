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

  /** Judge every new (paper, name) occurrence.
    *
    * @return (pid, name, cluster, bestScore, nanosPerOccurrence)
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
    val bModel = spark.sparkContext.broadcast(model)
    val bStats = spark.sparkContext.broadcast(stats)

    // One isolated vertex `<name>#new<pid>` per new occurrence.
    val newVertexPapers = newAuthorships
      .select("pid", "name")
      .distinct()
      .withColumn("vid", concat(col("name"), lit("#new"), col("pid")))
    val newOcc = Profiles.fold(spark, newVertexPapers, newPapers, newAuthorships, Map.empty, wlIters)

    newOcc
      .groupByKey(_.name)
      .cogroup(gcnClusters.groupByKey(_.name)) { (name, newIt, clustIt) =>
        val clusters = clustIt.toArray
        // Built only for names with a new occurrence, once per cluster.
        lazy val clusterFacts = clusters.map(Similarity.Facts(_))
        newIt.map { np =>
          val t0 = System.nanoTime()
          val facts = Similarity.Facts(np)
          var bestCluster: String = np.vid
          var bestScore = Double.NegativeInfinity
          var i = 0
          while (i < clusters.length) {
            val s = bModel.value.score(Similarity.gamma(facts, clusterFacts(i), bStats.value).toSeq)
            if (s > bestScore || (s == bestScore && clusters(i).vid < bestCluster)) {
              bestScore = s; bestCluster = clusters(i).vid
            }
            i += 1
          }
          val chosen = if (clusters.nonEmpty && bestScore >= delta) bestCluster else np.vid
          val pid = np.pids.head
          (pid, name, chosen, if (clusters.isEmpty) Double.NaN else bestScore, System.nanoTime() - t0)
        }
      }
      .toDF("pid", "name", "cluster", "bestScore", "nanos")
  }
}
