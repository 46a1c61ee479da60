package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Common plumbing for the comparison baselines (§VI-A.3).
  *
  * Every unsupervised baseline is a per-name clusterer: it sees the papers
  * carrying one (target) name — the classic ego-network view the paper
  * criticises — and groups them into author clusters. The Spark runner
  * distributes names across partitions and folds each group on the driver
  * side of `flatMapGroups` (groups are small: ≤ a few hundred papers).
  */
object Baselines {

  /** One paper as seen from a target name's ego-network. */
  final case class PaperRec(
      pid: Long,
      coNames: Seq[String], // co-author names, target excluded
      title: Seq[String],
      venue: String,
      year: Int,
  )

  /** A per-name clustering algorithm. */
  trait NameClusterer extends Serializable {
    def id: String

    /** Cluster labels (dense 0-based), one per input paper. */
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int]
  }

  /** (name, papers) groups for the given names (or all names with ≥ 2 papers
    * when `onlyNames` is empty).
    */
  def nameGroups(
      spark: SparkSession,
      papers: DataFrame,
      authorships: DataFrame,
      onlyNames: Option[DataFrame],
  ): DataFrame = {
    val occ = authorships.select("pid", "name").distinct()
    val restricted = onlyNames match {
      case Some(names) => occ.join(names, Seq("name"))
      case None        => occ
    }
    val coLists = authorships
      .select("pid", "name")
      .distinct()
      .groupBy("pid")
      .agg(collect_list("name").as("allNames"))
    restricted
      .join(papers.select("pid", "title", "venue", "year"), Seq("pid"))
      .join(coLists, Seq("pid"))
  }

  /** Run a clusterer over every name group.
    *
    * @return (pid, name, cluster) — `cluster` is globally unique across names
    */
  def run(
      spark: SparkSession,
      papers: DataFrame,
      authorships: DataFrame,
      clusterer: NameClusterer,
      onlyNames: Option[DataFrame] = None,
  ): DataFrame = {
    import spark.implicits._
    nameGroups(spark, papers, authorships, onlyNames)
      .select("name", "pid", "title", "venue", "year", "allNames")
      .as[(String, Long, Seq[String], String, Int, Seq[String])]
      .groupByKey(_._1)
      .flatMapGroups { (name, it) =>
        val recs = it.map { case (_, pid, title, venue, year, allNames) =>
          PaperRec(pid, allNames.filterNot(_ == name), title, venue, year)
        }.toIndexedSeq.sortBy(_.pid)
        val labels = clusterer.clusterName(recs)
        recs.indices.map(i => (recs(i).pid, name, s"$name::${labels(i)}"))
      }
      .toDF("pid", "name", "cluster")
  }
}
