package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import Model._

/** Builds every [[Model.VertexProfile]] from paper rows with the pure [[of]]:
  * SCN vertices and the halves of a split vertex (§V-F.2) through the Spark
  * [[fold]], new-paper occurrences (§V-E) on the driver in
  * [[Incremental.disambiguate]].
  *
  * The fold joins paper attributes and each paper's author names to the
  * vertices, then calls [[of]] in a `groupByKey(vid).mapGroups`. WL needs the
  * instance-level SCN adjacency and names, which are SCR-derived and
  * therefore small: [[ScnBuilder.graph]] builds them on the driver, and they
  * ship with the fold's tasks.
  */
object Profiles {

  /** Separator inside encoded clique strings ("yz", y < z). */
  val CliqueSep = '\u0001'

  def encodeClique(y: String, z: String): String =
    if (y < z) s"$y$CliqueSep$z" else s"$z$CliqueSep$y"

  /** One paper of a vertex: (pid, title words, venue, year, distinct names on the paper). */
  type PaperRow = (Long, Seq[String], String, Int, Seq[String])

  /** The profile of vertex `vid` of name `name` from its papers, in any order.
    *
    * @param graph the SCN instance graph WL runs on; a vid with no edge in
    *              it is isolated, and its ego graph is the bare name
    */
  def of(
      vid: String,
      name: String,
      papers: Seq[PaperRow],
      graph: ScnBuilder.Graph,
      wlIters: Int,
  ): VertexProfile = {
    // pid order: γ3 sums word vectors in wordYears order, which must not
    // depend on the order the rows arrive in.
    val rows = papers.sortBy(_._1)
    val cliques = rows.flatMap { row =>
      val cs = row._5.filterNot(_ == name).sorted
      for (i <- cs.indices; j <- (i + 1) until cs.size) yield encodeClique(cs(i), cs(j))
    }.distinct.sorted
    VertexProfile(
      vid = vid,
      name = name,
      pids = rows.map(_._1),
      wordYears = rows.flatMap(row => row._2.map(w => (w, row._4))),
      venues = rows.map(_._3).sorted,
      cliques = cliques,
      wl = WlKernel.features(vid, name, graph.adj, graph.names, wlIters),
    )
  }

  /** One profile per vid of `vertexPapers` (vid, name, pid), by [[of]];
    * every (pid, name) in it must occur in `authorships`.
    */
  def fold(
      spark: SparkSession,
      vertexPapers: DataFrame,
      papers: DataFrame,
      authorships: DataFrame,
      graph: ScnBuilder.Graph,
      wlIters: Int,
  ): Dataset[VertexProfile] = {
    import spark.implicits._
    val namesOnPaper = authorships
      .groupBy("pid")
      .agg(collect_set("name").as("names"))
    vertexPapers
      .join(papers, Seq("pid"))
      .join(namesOnPaper, Seq("pid"))
      .select("vid", "name", "pid", "title", "venue", "year", "names")
      .as[(String, String, Long, Seq[String], String, Int, Seq[String])]
      .groupByKey(_._1)
      .mapGroups { (vid, it) =>
        val rows = it.toVector
        of(vid, rows.head._2, rows.map(r => (r._3, r._4, r._5, r._6, r._7)), graph, wlIters)
      }
  }

  /** Profiles of every SCN vertex that owns papers, with WL over SCN edges. */
  def build(
      spark: SparkSession,
      scn: Scn,
      papers: DataFrame,
      authorships: DataFrame,
      wlIters: Int = 2,
  ): Dataset[VertexProfile] =
    fold(spark, scn.vertexPapers, papers, authorships, scn.graph, wlIters)

  /** Merge several profiles into one (used when GCN clusters vertices and in
    * the incremental judge). WL maps are summed — an approximation of the
    * merged vertex's ego features, adequate because γ1 is normalised.
    * Members are taken in vid order: γ3 sums word vectors in `wordYears`
    * order, which must not depend on the order the members arrive in.
    */
  def merge(vid: String, members: Seq[VertexProfile]): VertexProfile = {
    require(members.nonEmpty, "merge of zero profiles")
    val ps = members.sortBy(_.vid)
    val wl = ps.foldLeft(Map.empty[String, Int]) { (acc, p) =>
      p.wl.foldLeft(acc) { case (a, (k, c)) => a.updated(k, a.getOrElse(k, 0) + c) }
    }
    VertexProfile(
      vid = vid,
      name = ps.head.name,
      pids = ps.flatMap(_.pids).distinct.sorted,
      wordYears = ps.flatMap(_.wordYears),
      venues = ps.flatMap(_.venues).sorted,
      cliques = ps.flatMap(_.cliques).distinct.sorted,
      wl = wl,
    )
  }
}
