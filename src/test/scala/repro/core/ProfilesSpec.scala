package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{PropChecks, SparkSpec}
import repro.dblp.DblpSynth

class ProfilesSpec extends SparkSpec with PropChecks {
  import spark.implicits._

  private lazy val cfg = DblpSynth.Config(sf = 0.002, seed = 21L)
  private lazy val (papersDf, authDf) = {
    val (p, a) = DblpSynth.generate(spark, cfg)
    (p.cache(), a.cache())
  }
  private lazy val scn = ScnBuilder.build(spark, authDf, 3)
  private lazy val profiles = Profiles.build(spark, scn, papersDf, authDf, wlIters = 2).cache()

  test("one profile per vertex with papers") {
    val nVertsWithPapers = scn.vertexPapers.select("vid").distinct().count()
    assert(profiles.count() === nVertsWithPapers)
  }

  test("profile paper counts match vertexPapers") {
    val expected = scn.vertexPapers.groupBy("vid").agg(countDistinct("pid").as("n"))
      .as[(String, Long)].collect().toMap
    profiles.collect().foreach { p =>
      assert(p.pids.size.toLong === expected(p.vid), s"vid ${p.vid}")
    }
  }

  test("profiles carry one venue per paper") {
    profiles.take(50).foreach { p =>
      assert(p.venues.size === p.pids.size)
    }
  }

  test("wordYears hold every title word of the vertex's papers") {
    val prof = profiles.collect().maxBy(_.nPapers)
    val expected = scn.vertexPapers
      .filter(col("vid") === prof.vid)
      .join(papersDf, Seq("pid"))
      .select(explode(col("title")))
      .count()
    assert(prof.wordYears.size.toLong === expected)
  }

  test("cliques come from co-author pairs of the vertex's papers") {
    // A vertex whose papers have >= 2 co-authors must have >= 1 clique.
    val withBigPapers = scn.vertexPapers
      .join(authDf.groupBy("pid").agg(count(lit(1)).as("na")), Seq("pid"))
      .filter(col("na") >= 3)
      .select("vid").distinct().as[String].collect().toSet
    val some = profiles.filter(p => withBigPapers.contains(p.vid)).take(20)
    assert(some.nonEmpty)
    some.foreach(p => assert(p.cliques.nonEmpty, s"${p.vid} has 3+-author papers but no cliques"))
  }

  test("clique encoding is canonical") {
    assert(Profiles.encodeClique("b", "a") === Profiles.encodeClique("a", "b"))
    assert(Profiles.encodeClique("a", "b").contains(Profiles.CliqueSep))
  }

  test("SCR vertices have non-empty WL features with neighbour labels") {
    val scrProf = profiles.filter(_.vid.contains("#c")).take(5)
    assert(scrProf.nonEmpty)
    scrProf.foreach { p =>
      assert(p.wl.nonEmpty)
      assert(p.wl.keys.exists(_.startsWith("0|")))
    }
  }

  test("singleton vertices have isolated WL features") {
    val single = profiles.filter(_.vid.contains("#p")).take(5)
    assert(single.nonEmpty)
    single.foreach { p =>
      // iterations 0..2, one vertex → exactly 3 label occurrences
      assert(p.wl.values.sum === 3, s"${p.vid}: ${p.wl}")
    }
  }

  test("merge concatenates papers and sums WL counts") {
    val ps = profiles.take(2)
    val m = Profiles.merge("merged", ps.toSeq)
    assert(m.pids.toSet === ps.flatMap(_.pids).toSet)
    assert(m.venues.size === ps.map(_.venues.size).sum)
    val totalWl = ps.map(_.wl.values.sum).sum
    assert(m.wl.values.sum === totalWl)
  }

  test("merge does not depend on member order") {
    val ps = profiles.collect().filter(_.wordYears.nonEmpty).sortBy(_.vid).take(3).toSeq
    assert(ps.size === 3)
    assert(Profiles.merge("merged", ps) === Profiles.merge("merged", ps.reverse))
  }

  test("merge rejects empty input") {
    intercept[IllegalArgumentException] { Profiles.merge("x", Seq.empty) }
  }

  test("profile names match their vid prefix") {
    profiles.take(100).foreach { p =>
      assert(p.vid.startsWith(p.name + "#"), s"${p.vid} vs ${p.name}")
    }
  }

  /** Papers of vertex "a#c0" with distinct pids, seen from "a"; the names on
    * a paper may or may not include "a".
    */
  private val paperRecsGen: Gen[Seq[Model.PaperRec]] = {
    val paper = for {
      title <- Gen.listOf(Gen.oneOf("w1", "w2", "w3", "rare"))
      venue <- Gen.oneOf("v0", "v1", "v2")
      year <- Gen.choose(1990, 2010)
      names <- Gen.someOf("a", "b", "c", "d", "e").map(_.toSeq)
    } yield (title, venue, year, names)
    for {
      pids <- Gen.listOf(Gen.choose(1L, 30L)).map(_.distinct)
      ps <- Gen.listOfN(pids.size, paper)
    } yield pids.zip(ps).map { case (pid, (t, v, y, ns)) => Model.Occurrence("a#c0", "a", pid, t, v, y, ns).paper }
  }

  private val graph = ScnBuilder.graph(Seq(("a", "b", 3L)))

  test("of does not depend on the order of its paper rows or of the names on a paper") {
    forAll(Gen.zip(paperRecsGen, Gen.long)) { case (rows, seed) =>
      val rnd = new scala.util.Random(seed)
      val shuffled = rnd.shuffle(rows).map(r => r.copy(coNames = rnd.shuffle(r.coNames)))
      assert(Profiles.of("a#c0", "a", shuffled, graph, 2) === Profiles.of("a#c0", "a", rows, graph, 2))
    }
  }

  test("of: cliques never contain the vertex's own name, and are canonical pairs") {
    forAll(paperRecsGen) { rows =>
      Profiles.of("a#c0", "a", rows, graph, 2).cliques.foreach { c =>
        val Array(y, z) = c.split(Profiles.CliqueSep)
        assert(y != "a" && z != "a", c)
        assert(y < z, c)
      }
    }
  }

  test("of equals the fold's output for every vertex of the corpus") {
    val papers = papersDf.select("pid", "title", "venue", "year").as[(Long, Seq[String], String, Int)]
      .collect().map(p => p._1 -> p).toMap
    val namesOn = authDf.select("pid", "name").as[(Long, String)].collect()
      .groupBy(_._1).map { case (pid, rs) => pid -> rs.map(_._2).toSeq }
    val byVid = scn.vertexPapers.select("vid", "name", "pid").as[(String, String, Long)].collect().groupBy(_._1)
    val folded = profiles.collect()
    assert(folded.length === byVid.size)
    folded.foreach { p =>
      val rows = byVid(p.vid).toSeq.map { case (_, _, pid) =>
        val (_, title, venue, year) = papers(pid)
        Model.Occurrence(p.vid, p.name, pid, title, venue, year, namesOn(pid)).paper
      }
      assert(Profiles.of(p.vid, byVid(p.vid).head._2, rows, scn.graph, 2) === p, p.vid)
    }
  }
}
