package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.unsafe.types.UTF8String
import repro.util.{Stage, UnionFind}
import Model._

/** Stage I of IUAD: stable collaboration network construction (§IV).
  *
  * The insertion procedure of Fig. 4 is equivalent to, per name `a`,
  * partitioning a's SCR partners into connected components of the graph whose
  * edges are SCRs *among those partners* (each such edge closes a stable
  * triangle with `a`). Two partners in one component collapse into the same
  * vertex instance of `a`; each component is one SCN vertex. Union is
  * order-independent, so this yields the paper's partition. There is one SCN
  * edge per SCR, and SCRs are few, so [[graph]] builds the instance level on
  * the driver from the collected SCRs.
  *
  * Papers whose co-author list contains an SCR pair (a, b) attach to the
  * instance of `a` whose component contains `b` (ties across several partners
  * resolved by highest SCR count, then name). Every remaining (name, paper)
  * occurrence becomes its own singleton vertex — the bottom-up assumption
  * that same-name authors are different until proven identical. [[build]]
  * assigns every occurrence in one pass over each paper's author names.
  */
object ScnBuilder {

  /** The SCN's instance level.
    *
    * @param comps one row per (name, SCR partner): the partner's component
    * @param edges (src, dst) instance vids, one edge per SCR
    */
  final case class Graph(comps: Seq[NeighborComp], edges: Seq[(String, String)]) {
    /** Instance vid → its name, the vertex's WL label. */
    val names: Map[String, String] = comps.map(c => Vid.instance(c.name, c.comp) -> c.name).toMap
    /** Each instance's distinct neighbours, sorted; a vid with no edge is absent. */
    val adj: Map[String, Array[String]] = edges.flatMap { case (s, d) => Seq(s -> d, d -> s) }
      .groupMap(_._1)(_._2).map { case (v, ns) => v -> ns.distinct.sorted.toArray }
  }

  object Graph { val empty: Graph = Graph(Seq.empty, Seq.empty) }

  /** Instance graph of the SCRs `(a, b, cnt)`. Component k of a name is the
    * k-th by smallest member, so ids do not depend on the order of `scrs`;
    * a pair counts as an SCR whichever way round it is given.
    */
  def graph(scrs: Seq[(String, String, Long)]): Graph = {
    val isScr = scrs.flatMap { case (a, b, _) => Seq((a, b), (b, a)) }.toSet
    val comps = isScr.groupMap(_._1)(_._2).toSeq.flatMap { case (name, partners) =>
      val ps = partners.toIndexedSeq
      val uf = new UnionFind[String]
      ps.foreach(uf.add)
      for (i <- ps.indices; j <- (i + 1) until ps.size if isScr((ps(i), ps(j)))) uf.union(ps(i), ps(j))
      uf.groups().map(_.sorted).sortBy(_.head).zipWithIndex.flatMap { case (members, k) =>
        members.map(NeighborComp(name, _, k))
      }
    }
    val compOf = comps.map(c => (c.name, c.nbr) -> c.comp).toMap
    Graph(comps, scrs.map { case (a, b, _) => (Vid.instance(a, compOf((a, b))), Vid.instance(b, compOf((b, a)))) })
  }

  /** Strongest SCR partner last: by count, then by name in Spark's
    * (code-point) string order.
    */
  private val byStrength: Ordering[(Long, String, Int)] =
    Ordering.by(m => (m._1, UTF8String.fromString(m._2)))

  /** Full SCN from the paper database. */
  def build(spark: SparkSession, authorships: DataFrame, eta: Int): Scn = {
    import spark.implicits._
    val scrs = Scr.mine(authorships, eta).as[(String, String, Long)].collect().toSeq
    val g = graph(scrs)
    val cnt = scrs.flatMap { case (a, b, c) => Seq((a, b) -> c, (b, a) -> c) }.toMap
    // name → SCR partner → (count, component of the partner).
    val mates = spark.sparkContext.broadcast(
      g.comps.groupBy(_.name).map { case (name, cs) => name -> cs.map(c => c.nbr -> (cnt((name, c.nbr)), c.comp)).toMap })

    val vertexPapers = Stage.materialise(
      namesOnPaper(authorships)
        .as[(Long, Seq[String])]
        .flatMap { case (pid, names) =>
          names.map { name =>
            val m = mates.value.getOrElse(name, Map.empty[String, (Long, Int)])
            val onPaper = names.flatMap(p => m.get(p).map { case (c, k) => (c, p, k) })
            val vid =
              if (onPaper.isEmpty) Vid.singleton(name, pid)
              else Vid.instance(name, onPaper.max(byStrength)._3)
            (vid, name, pid)
          }
        }
        .toDF("vid", "name", "pid"))
    // Every vid of vertexPapers is an instance or a singleton, and a
    // singleton has one paper: singleton rows plus instances are duplicate-free.
    val instanceVids = spark.sparkContext.broadcast(g.names.keySet)
    val isSingleton = udf((vid: String) => !instanceVids.value.contains(vid))
    val vertices = vertexPapers
      .where(isSingleton(col("vid")))
      .select("vid", "name")
      .union(g.names.toSeq.toDF("vid", "name"))

    Scn(vertices, g.edges.toDF("src", "dst"), vertexPapers, g)
  }
}
