package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Model.{PaperRec, occurrencePapers}

/** Common plumbing for the comparison baselines (§VI-A.3).
  *
  * Every unsupervised baseline is a per-name clusterer: it sees the papers
  * carrying one (target) name — the classic ego-network view the paper
  * criticises — and groups them into author clusters. Each paper is the
  * [[PaperRec]] that IUAD's vertex profiles read too, loaded by the same
  * [[repro.core.Model.occurrencePapers]]. The Spark runner distributes names
  * across partitions and clusters each name's group inside `flatMapGroups`
  * (groups are small: ≤ a few hundred papers).
  */
object Baselines {

  /** A per-name clustering algorithm. */
  trait NameClusterer extends Serializable {
    def id: String

    /** Cluster labels (dense 0-based), one per input paper. */
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int]
  }

  /** Run a clusterer over the papers of each name in `names`, in pid order.
    *
    * @return (pid, name, cluster) — `cluster` is globally unique across names
    */
  def run(
      spark: SparkSession,
      papers: DataFrame,
      authorships: DataFrame,
      clusterer: NameClusterer,
      names: DataFrame,
  ): DataFrame = {
    import spark.implicits._
    val occurrences = authorships.select("pid", "name").distinct().join(names, Seq("name"))
    occurrencePapers[String](occurrences.select("name", "name", "pid"), papers, authorships)
      .groupByKey(_.key)
      .flatMapGroups { (name, it) =>
        val recs = it.map(_.paper).toIndexedSeq.sortBy(_.pid)
        val labels = clusterer.clusterName(recs)
        recs.indices.map(i => (recs(i).pid, name, s"$name::${labels(i)}"))
      }
      .toDF("pid", "name", "cluster")
  }
}
