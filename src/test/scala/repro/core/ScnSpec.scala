package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Oracle, PropChecks, SparkSpec}
import repro.dblp.DblpSynth
import repro.util.UnionFind
import Model.{NeighborComp, Vid}

class ScnSpec extends SparkSpec with PropChecks {
  import spark.implicits._

  /** The running example of Fig. 4: 2-SCRs (a,b),(a,c),(a,d),(b,e),(c,d),(b,c).
    * Expected: one instance of a connected to {b,c,d}; b has a second
    * instance paired with e.
    */
  private def fig4Authorships = {
    // Build co-author lists that produce exactly those 2-SCRs.
    val lists = Seq(
      Seq("a", "b"), Seq("a", "b"),
      Seq("a", "c"), Seq("a", "c"),
      Seq("a", "d"), Seq("a", "d"),
      Seq("b", "e"), Seq("b", "e"),
      Seq("c", "d"), Seq("c", "d"),
      Seq("b", "c"), Seq("b", "c"),
      Seq("f", "g"), // below threshold: appears once
    )
    lists.zipWithIndex.flatMap { case (names, pid) => names.map(n => (pid.toLong, n)) }
      .toDF("pid", "name")
  }

  private def graphOf(authorships: DataFrame, eta: Int): ScnBuilder.Graph =
    ScnBuilder.graph(Scr.mine(authorships, eta).as[(String, String, Long)].collect().toSeq)

  test("Fig 4: neighbour components follow the triangle rule") {
    val nc = graphOf(fig4Authorships, 2).comps
    // For name a: neighbours b, c, d. Triangles (a,b,c) and (a,c,d) connect
    // them all into a single component.
    val aComps = nc.filter(_.name == "a").map(_.comp).distinct
    assert(aComps.length === 1)
    // For name b: neighbours a, c, e. (a,c) is an SCR => {a,c} one component;
    // e is separate.
    val bComps = nc.filter(_.name == "b")
    assert(bComps.map(_.comp).distinct.length === 2)
    val eComp = bComps.find(_.nbr == "e").get.comp
    val aComp = bComps.find(_.nbr == "a").get.comp
    val cComp = bComps.find(_.nbr == "c").get.comp
    assert(aComp === cComp)
    assert(eComp !== aComp)
  }

  test("Fig 4: name b gets two SCN vertices, name a gets one") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val verts = scn.vertices.as[(String, String)].collect()
    val aScr = verts.filter { case (vid, name) => name == "a" && vid.contains("#c") }
    val bScr = verts.filter { case (vid, name) => name == "b" && vid.contains("#c") }
    assert(aScr.length === 1)
    assert(bScr.length === 2)
  }

  test("Fig 4: below-threshold names become singletons") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val fVerts = scn.vertices.filter(col("name") === "f").as[(String, String)].collect()
    assert(fVerts.length === 1)
    assert(fVerts.head._1.contains("#p"))
  }

  test("Fig 4: instance edges connect the right components") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val edges = scn.edges.as[(String, String)].collect().toSet
    // 6 SCRs → 6 instance edges.
    assert(edges.size === 6)
    // b's instance adjacent to e differs from b's instance adjacent to a.
    val bToE = edges.collect { case (s, d) if s.startsWith("b#") && d.startsWith("e#") => s }
      .headOption.orElse(edges.collect { case (s, d) if d.startsWith("b#") && s.startsWith("e#") => d }.headOption)
    val bToA = edges.collect { case (s, d) if s.startsWith("a#") && d.startsWith("b#") => d }
      .headOption.orElse(edges.collect { case (s, d) if d.startsWith("a#") && s.startsWith("b#") => s }.headOption)
    assert(bToE.isDefined && bToA.isDefined)
    assert(bToE.get !== bToA.get)
  }

  test("papers containing an SCR pair attach to SCR instances") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val vp = scn.vertexPapers.as[(String, String, Long)].collect()
    // Papers 0,1 are (a,b): both occurrences must attach to #c vertices.
    val p0 = vp.filter(_._3 == 0L)
    assert(p0.length === 2)
    assert(p0.forall(_._1.contains("#c")), s"got ${p0.mkString(",")}")
  }

  test("every (pid, name) occurrence is assigned exactly once") {
    val scn = ScnBuilder.build(spark, fig4Authorships, 2)
    val occCount = fig4Authorships.distinct().count()
    assert(scn.vertexPapers.count() === occCount)
    val dup = scn.vertexPapers.groupBy("pid", "name").count().filter(col("count") > 1).count()
    assert(dup === 0L)
  }

  test("assignment prefers the strongest SCR partner") {
    // name x co-authors with y (3 papers) and z (2 papers); y and z are not
    // SCR-connected, so x has two components. A paper with both y and z must
    // go to the y-component (higher cnt).
    val lists = Seq(
      Seq("x", "y"), Seq("x", "y"), Seq("x", "y"),
      Seq("x", "z"), Seq("x", "z"),
      Seq("x", "y", "z"),
    )
    val a = lists.zipWithIndex
      .flatMap { case (names, pid) => names.map(n => (pid.toLong, n)) }
      .toDF("pid", "name")
    val scn = ScnBuilder.build(spark, a, 2)
    val yComp = graphOf(a, 2).comps.find(c => c.name == "x" && c.nbr == "y").get.comp
    val vp = scn.vertexPapers.as[(String, String, Long)].collect()
    val mixed = vp.find(r => r._3 == 5L && r._2 == "x").get
    assert(mixed._1 === s"x#c$yComp")
  }

  test("SCN on synthetic corpus: occurrences preserved and vertices typed") {
    val (_, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 3L))
    val scn = ScnBuilder.build(spark, auth, 3)
    assert(scn.vertexPapers.count() === auth.select("pid", "name").distinct().count())
    val vids = scn.vertices.select("vid").as[String].collect()
    assert(vids.forall(v => v.contains("#c") || v.contains("#p")))
  }

  test("vertices are unique and equal the vertexPapers vids plus the instances") {
    val (_, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 3L))
    val scn = ScnBuilder.build(spark, auth, 2)
    val vids = scn.vertices.select("vid").as[String].collect()
    assert(vids.length === vids.distinct.length)
    val instances = graphOf(auth, 2).comps.map(c => (Vid.instance(c.name, c.comp), c.name)).toDF("vid", "name")
    val deduped = scn.vertexPapers.select("vid", "name").union(instances).distinct()
    assert(scn.vertices.collect().toSet === deduped.collect().toSet)
    assert(vids.exists(_.contains("#c")) && vids.exists(_.contains("#p")))
  }

  test("the graph's adjacency and names agree with the edges and vertices") {
    val (_, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 3L))
    val scn = ScnBuilder.build(spark, auth, 2)
    val fromEdges = scn.edges.as[(String, String)].collect()
      .flatMap { case (s, d) => Seq(s -> d, d -> s) }
      .groupBy(_._1).map { case (v, es) => v -> es.map(_._2).distinct.sorted.toSeq }
    assert(fromEdges.nonEmpty)
    assert(scn.graph.adj.map { case (v, ns) => v -> ns.toSeq } === fromEdges)
    val nameOf = scn.vertices.as[(String, String)].collect().toMap
    scn.graph.names.foreach { case (vid, name) => assert(nameOf.get(vid) === Some(name), vid) }
    assert(scn.graph.adj.keySet.subsetOf(scn.graph.names.keySet))
  }

  test("SCN stage alone is high precision on the synthetic corpus") {
    val (_, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.004, seed = 42L))
    val scn = ScnBuilder.build(spark, auth, 3)
    val assignment = scn.vertexPapers.select(col("pid"), col("name"), col("vid").as("cluster"))
    val evalNames = Evaluation.ambiguousNames(auth)
    val m = Evaluation.pairwiseMicro(spark, assignment, auth, Some(evalNames))
    assert(m.precision > 0.8, s"SCN precision too low: $m")
    assert(m.recall < m.precision, s"SCN should favour precision: $m")
  }

  /** The triangle formulation of [[ScnBuilder.graph]]: SCR triangle (x, y, z)
    * joins y and z in a component of x, x and z in one of y, x and y in one
    * of z; SCR (a, b) links a's component holding b to b's holding a.
    */
  private def viaTriangles(scrs: Seq[(String, String, Long)]): ScnBuilder.Graph = {
    val tris = ScrSpec.triangles(scrs.toDF("a", "b", "cnt")).as[(String, String, String)].collect()
    val ufs = scrs.flatMap { case (a, b, _) => Seq(a -> b, b -> a) }.groupMap(_._1)(_._2).map { case (name, ps) =>
      val uf = new UnionFind[String]
      ps.foreach(uf.add)
      name -> uf
    }
    tris.foreach { case (x, y, z) => ufs(x).union(y, z); ufs(y).union(x, z); ufs(z).union(x, y) }
    val comps = ufs.toSeq.flatMap { case (name, uf) =>
      uf.groups().map(_.sorted).sortBy(_.head).zipWithIndex.flatMap { case (ms, k) => ms.map(NeighborComp(name, _, k)) }
    }
    val compOf = comps.map(c => (c.name, c.nbr) -> c.comp).toMap
    ScnBuilder.Graph(comps, scrs.map { case (a, b, _) => (s"$a#c${compOf((a, b))}", s"$b#c${compOf((b, a))}") })
  }

  test("graph equals the triangle formulation on random SCR sets") {
    val names = "abcdefgh".map(_.toString)
    val scrSets = Gen.listOf(Gen.zip(Gen.oneOf(names), Gen.oneOf(names), Gen.choose(2L, 5L))).map { ps =>
      ps.collect { case (a, b, c) if a < b => (a, b, c) }.distinctBy(p => (p._1, p._2))
    }
    forAll(scrSets, samples = 25) { scrs =>
      val got = ScnBuilder.graph(scrs)
      val want = viaTriangles(scrs)
      assert(got.comps.toSet === want.comps.toSet, scrs)
      assert(got.comps.size === want.comps.size, scrs)
      assert(got.edges === want.edges, scrs)
    }
  }

  test("graph reads an SCR whichever way round it is given") {
    val scrs = Seq(("a", "b", 3L), ("a", "c", 3L), ("b", "c", 3L), ("b", "e", 3L))
    val flipped = scrs.map { case (a, b, c) => (b, a, c) }
    assert(ScnBuilder.graph(flipped).comps.toSet === ScnBuilder.graph(scrs).comps.toSet)
  }

  test("oracle: vertexPapers match DuckDB's strongest-partner ranking") {
    val (_, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 11L))
    val eta = 2
    val scrs = Scr.mine(auth, eta)
    val nc = graphOf(auth, eta).comps.toDF()
    Oracle.assertEquivalent(
      ScnBuilder.build(spark, auth, eta).vertexPapers.select("vid", "name", "pid"),
      """WITH mate AS (
        |  SELECT a AS name, b AS partner, CAST(cnt AS BIGINT) AS cnt FROM scr
        |  UNION ALL SELECT b, a, CAST(cnt AS BIGINT) FROM scr),
        |ranked AS (
        |  SELECT o.pid, o.name, nc.comp,
        |         ROW_NUMBER() OVER (PARTITION BY o.pid, o.name ORDER BY m.cnt DESC, m.partner DESC) AS rk
        |  FROM occ o
        |  JOIN occ r ON r.pid = o.pid
        |  JOIN mate m ON m.name = o.name AND m.partner = r.name
        |  JOIN nc ON nc.name = o.name AND nc.nbr = m.partner)
        |SELECT o.name || CASE WHEN k.comp IS NULL THEN '#p' || o.pid ELSE '#c' || k.comp END AS vid,
        |       o.name AS name, o.pid AS pid
        |FROM occ o LEFT JOIN ranked k ON k.pid = o.pid AND k.name = o.name AND k.rk = 1""".stripMargin,
      "occ" -> auth.select("pid", "name").distinct(),
      "scr" -> scrs,
      "nc" -> nc,
    )
  }

  test("SCN does not depend on shuffle partitions or input row order") {
    val (_, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 5L))
    def sorted(df: DataFrame): Seq[String] = df.collect().map(_.toString).toSeq.sorted
    def scnRows(a: DataFrame): Seq[Seq[String]] = {
      val scn = ScnBuilder.build(spark, a, 2)
      Seq(sorted(scn.vertexPapers), sorted(scn.vertices), sorted(scn.edges))
    }
    val key = "spark.sql.shuffle.partitions"
    val before = spark.conf.get(key)
    try {
      spark.conf.set(key, "1")
      val one = scnRows(auth)
      spark.conf.set(key, "8")
      val rows = new scala.util.Random(7L).shuffle(auth.collect().toSeq)
      val shuffled = spark.createDataFrame(java.util.Arrays.asList(rows: _*), auth.schema).repartition(5)
      assert(scnRows(shuffled) === one)
      assert(one.head.exists(_.contains("#c")))
    } finally spark.conf.set(key, before)
  }
}
