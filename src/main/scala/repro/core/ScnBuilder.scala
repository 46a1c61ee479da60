package repro.core

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.util.{Stage, UnionFind}
import Model._

/** Stage I of IUAD: stable collaboration network construction (§IV).
  *
  * The insertion procedure of Fig. 4 is equivalent to, per name `a`,
  * partitioning a's SCR partners into connected components of the graph whose
  * edges are SCRs *among those partners* (each such edge closes a stable
  * triangle with `a`). Two partners in one component collapse into the same
  * vertex instance of `a`; each component is one SCN vertex. That
  * reformulation is what we compute here — it is embarrassingly parallel per
  * name (`groupByKey(name)` + a driver-light union-find per group), unlike
  * the paper's sequential insertion, and provably yields the same partition
  * because union is order-independent.
  *
  * Papers whose co-author list contains an SCR pair (a, b) attach to the
  * instance of `a` whose component contains `b` (ties across several partners
  * resolved by highest SCR count, then name). Every remaining (name, paper)
  * occurrence becomes its own singleton vertex — the bottom-up assumption
  * that same-name authors are different until proven identical.
  */
object ScnBuilder {

  def vidOfComp(name: String, comp: Int): String = s"$name#c$comp"
  def vidOfSingleton(name: String, pid: Long): String = s"$name#p$pid"

  /** Per-name SCR-partner components. Output: one row per (name, partner). */
  def neighborComponents(spark: SparkSession, scrs: DataFrame): Dataset[NeighborComp] = {
    import spark.implicits._
    val scrDs = scrs.select($"a", $"b").as[(String, String)]
    val neighbors: Dataset[(String, String)] =
      scrDs.flatMap { case (a, b) => Seq((a, b), (b, a)) }
    val tris = Scr.triangles(scrs).as[(String, String, String)]
    // Triangle (x,y,z) contributes the neighbour-graph edge (y,z) to x, etc.
    val triEdges: Dataset[(String, String, String)] =
      tris.flatMap { case (x, y, z) => Seq((x, y, z), (y, x, z), (z, x, y)) }

    neighbors
      .groupByKey(_._1)
      .cogroup(triEdges.groupByKey(_._1)) { (name, nbrIt, triIt) =>
        val uf = new UnionFind[String]
        nbrIt.foreach { case (_, nbr) => uf.add(nbr) }
        triIt.foreach { case (_, n1, n2) => uf.union(n1, n2) }
        // Canonical component index: order components by their min member so
        // ids are stable across partitionings.
        val comps = uf.groups().map(_.sorted).sortBy(_.head).zipWithIndex
        comps.iterator.flatMap { case (members, idx) =>
          members.map(nbr => NeighborComp(name, nbr, idx))
        }
      }
  }

  /** Instance-level SCN edges: SCR (a,b) links a's component containing b to
    * b's component containing a.
    */
  def instanceEdges(scrs: DataFrame, neighborComp: DataFrame): DataFrame = {
    val ncA = neighborComp.select(col("name").as("a"), col("nbr").as("b"), col("comp").as("compA"))
    val ncB = neighborComp.select(col("name").as("b2"), col("nbr").as("a2"), col("comp").as("compB"))
    scrs
      .join(ncA, Seq("a", "b"))
      .join(ncB, col("b") === col("b2") && col("a") === col("a2"))
      .select(
        concat(col("a"), lit("#c"), col("compA")).as("src"),
        concat(col("b"), lit("#c"), col("compB")).as("dst"),
      )
  }

  /** Full SCN from the paper database. */
  def build(spark: SparkSession, authorships: DataFrame, eta: Int): Scn = {
    val occ = Stage.materialise(authorships.select("pid", "name").distinct())
    val scrs = Stage.materialise(Scr.mine(authorships, eta))
    val nc = Stage.materialise(neighborComponents(spark, scrs).toDF())
    val edges = instanceEdges(scrs, nc)

    // SCR name pairs present inside each paper's co-author list.
    val l = occ.as("l"); val r = occ.as("r")
    val pairsInPaper = l
      .join(r, col("l.pid") === col("r.pid") && col("l.name") < col("r.name"))
      .select(col("l.pid").as("pid"), col("l.name").as("a"), col("r.name").as("b"))
      .join(scrs, Seq("a", "b"))

    // Both directions: for occurrence (pid, name), `partner` is an SCR mate
    // present in the same paper.
    val partnered = pairsInPaper
      .select(col("pid"), col("a").as("name"), col("b").as("partner"), col("cnt"))
      .union(pairsInPaper.select(col("pid"), col("b").as("name"), col("a").as("partner"), col("cnt")))
      .join(nc.withColumnRenamed("nbr", "partner"), Seq("name", "partner"))

    // One component per occurrence: the partner with the strongest SCR wins.
    val assigned = partnered
      .groupBy("pid", "name")
      .agg(max(struct(col("cnt"), col("partner"), col("comp"))).as("m"))
      .select(
        concat(col("name"), lit("#c"), col("m.comp")).as("vid"),
        col("name"),
        col("pid"),
      )

    val singletons = occ
      .join(assigned.select("pid", "name"), Seq("pid", "name"), "left_anti")
      .select(
        concat(col("name"), lit("#p"), col("pid")).as("vid"),
        col("name"),
        col("pid"),
      )

    val vertexPapers = Stage.materialise(assigned.unionByName(singletons))
    val vertices = vertexPapers
      .select("vid", "name")
      .union(edges.select(col("src").as("vid"), split(col("src"), "#").getItem(0).as("name")))
      .union(edges.select(col("dst").as("vid"), split(col("dst"), "#").getItem(0).as("name")))
      .distinct()

    Scn(vertices, edges, vertexPapers, nc)
  }
}
