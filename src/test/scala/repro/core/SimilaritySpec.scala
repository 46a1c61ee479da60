package repro.core

import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{Oracle, PropChecks, SparkSpec}
import repro.dblp.{DblpSynth, WordVectors}
import repro.util.VectorOps
import Model.VertexProfile
import Similarity.{Facts, GlobalStats}

class SimilaritySpec extends SparkSpec with PropChecks {

  private val stats = GlobalStats(
    wordFreq = Map("rare" -> 2L, "common" -> 500L, "t0_w1" -> 10L, "t0_w2" -> 12L),
    venueFreq = Map("v0" -> 5L, "v1" -> 8L, "gv0" -> 1000L),
  )

  private def prof(
      vid: String,
      name: String = "a",
      pids: Seq[Long] = Seq(1L),
      wordYears: Seq[(String, Int)] = Seq.empty,
      venues: Seq[String] = Seq.empty,
      cliques: Seq[String] = Seq.empty,
      wl: Map[String, Int] = Map.empty,
  ) = VertexProfile(vid, name, pids, wordYears, venues, cliques, wl)

  test("gamma has exactly 6 components") {
    val p = prof("a#p1")
    assert(Similarity.gamma(Facts(p), Facts(p), stats).length === Similarity.NumFeatures)
  }

  test("γ2: clique coincidence counts shared co-author pairs over τ") {
    val c1 = Seq(Profiles.encodeClique("x", "y"), Profiles.encodeClique("x", "z"))
    val c2 = Seq(Profiles.encodeClique("y", "x"))
    val p1 = prof("a#c0", pids = Seq(1, 2), cliques = c1)
    val p2 = prof("a#c1", pids = Seq(3), cliques = c2)
    // τ = min(2, 1) = 1; intersection = {(x,y)} (encode canonicalises order)
    assert(Similarity.cliqueCoincidence(Facts(p1), Facts(p2)) === 1.0)
  }

  test("γ2 is zero without shared cliques") {
    val p1 = prof("a#c0", cliques = Seq(Profiles.encodeClique("x", "y")))
    val p2 = prof("a#c1", cliques = Seq(Profiles.encodeClique("u", "w")))
    assert(Similarity.cliqueCoincidence(Facts(p1), Facts(p2)) === 0.0)
  }

  test("γ3: same-topic keyword sets give higher cosine than cross-topic") {
    val sameA = prof("a#c0", wordYears = Seq(("t0_w1", 2000), ("t0_w2", 2001)))
    val sameB = prof("a#c1", wordYears = Seq(("t0_w3", 2002), ("t0_w4", 2003)))
    val crossB = prof("a#c2", wordYears = Seq(("t9_w3", 2002), ("t9_w4", 2003)))
    val same = Similarity.interestCosine(Facts(sameA), Facts(sameB))
    val cross = Similarity.interestCosine(Facts(sameA), Facts(crossB))
    assert(same > cross, s"same-topic $same should beat cross-topic $cross")
    assert(same > 0.3)
  }

  test("γ3 is zero when a side has no keywords") {
    val p1 = prof("a#c0")
    val p2 = prof("a#c1", wordYears = Seq(("t0_w1", 2000)))
    assert(Similarity.interestCosine(Facts(p1), Facts(p2)) === 0.0)
  }

  test("γ4: shared rare word with close years scores high") {
    val p1 = prof("a#c0", wordYears = Seq(("rare", 2000)))
    val p2 = prof("a#c1", wordYears = Seq(("rare", 2000)))
    val p3 = prof("a#c2", wordYears = Seq(("rare", 2015)))
    val near = Similarity.timeConsistency(Facts(p1), Facts(p2), stats)
    val far = Similarity.timeConsistency(Facts(p1), Facts(p3), stats)
    assert(near > far, s"near $near vs far $far — decay must punish year gaps")
    assert(near > 0.0)
  }

  test("γ4: rare words outweigh common words") {
    val pr1 = prof("a#c0", wordYears = Seq(("rare", 2000)))
    val pr2 = prof("a#c1", wordYears = Seq(("rare", 2000)))
    val pc1 = prof("a#c0", wordYears = Seq(("common", 2000)))
    val pc2 = prof("a#c1", wordYears = Seq(("common", 2000)))
    assert(Similarity.timeConsistency(Facts(pr1), Facts(pr2), stats) >
           Similarity.timeConsistency(Facts(pc1), Facts(pc2), stats))
  }

  test("γ4: min year difference is used when a word recurs") {
    val p1 = prof("a#c0", wordYears = Seq(("rare", 1990), ("rare", 2000)))
    val p2 = prof("a#c1", wordYears = Seq(("rare", 2001)))
    val got = Similarity.timeConsistency(Facts(p1), Facts(p2), stats)
    val expected = math.exp(-0.62 * 1) / math.log(2.0)
    assert(math.abs(got - expected) < 1e-9)
  }

  test("γ5: representative venue is the modal venue, deterministic on ties") {
    val p = prof("a#c0", venues = Seq("v1", "v0", "v1"))
    assert(Facts(p).repVenue === Some("v1"))
    val tie = prof("a#c0", venues = Seq("v1", "v0"))
    assert(Facts(tie).repVenue === Some("v0"))
  }

  test("γ5: mutual concentration in each other's representative venue") {
    val p1 = prof("a#c0", pids = Seq(1, 2), venues = Seq("v0", "v0"))
    val p2 = prof("a#c1", pids = Seq(3, 4), venues = Seq("v0", "v1"))
    // h1 = v0, h2 = v0 (modal of p2 is tie v0<v1 → v0)
    // frac(H2 at v0) = 1/2; frac(H1 at v0) = 2/2
    assert(Similarity.representativeCommunity(Facts(p1), Facts(p2)) === 0.5 + 1.0)
  }

  test("γ5 is bounded in [0, 2] even against a prolific vertex") {
    val big = prof("a#c0", pids = (1L to 60L), venues = Seq.fill(60)("v0"))
    val single = prof("a#p99", pids = Seq(99), venues = Seq("v0"))
    val g = Similarity.representativeCommunity(Facts(big), Facts(single))
    assert(g === 2.0)
  }

  test("γ5 is zero when either side has no venues") {
    val p1 = prof("a#c0")
    val p2 = prof("a#c1", venues = Seq("v0"))
    assert(Similarity.representativeCommunity(Facts(p1), Facts(p2)) === 0.0)
  }

  test("γ6: rare shared venues outweigh popular ones (Adamic/Adar)") {
    val r1 = prof("a#c0", venues = Seq("v0"))
    val r2 = prof("a#c1", venues = Seq("v0"))
    val g1 = prof("a#c0", venues = Seq("gv0"))
    val g2 = prof("a#c1", venues = Seq("gv0"))
    assert(Similarity.researchCommunity(Facts(r1), Facts(r2), stats) >
           Similarity.researchCommunity(Facts(g1), Facts(g2), stats))
  }

  test("γ6 is zero without shared venues") {
    val p1 = prof("a#c0", venues = Seq("v0"))
    val p2 = prof("a#c1", venues = Seq("v1"))
    assert(Similarity.researchCommunity(Facts(p1), Facts(p2), stats) === 0.0)
  }

  test("all gammas are finite and non-negative on arbitrary profiles") {
    val p1 = prof("a#c0", pids = Seq(1, 2), wordYears = Seq(("rare", 2000), ("t0_w1", 2001)),
      venues = Seq("v0", "v1"), cliques = Seq(Profiles.encodeClique("x", "y")),
      wl = WlKernel.features("a#c0", "a", Map.empty, Map.empty, 2))
    val p2 = prof("a#c1", pids = Seq(3), wordYears = Seq(("common", 1995)),
      venues = Seq("gv0"), wl = WlKernel.features("a#c1", "a", Map.empty, Map.empty, 2))
    val g = Similarity.gamma(Facts(p1), Facts(p2), stats)
    g.foreach { x => assert(!x.isNaN && !x.isInfinite && x >= 0.0, s"bad gamma: ${g.toSeq}") }
  }

  test("globalStats counts words and venues like the corpus (oracle-checked elsewhere)") {
    import spark.implicits._
    val papers = Seq(
      (1L, Seq("w1", "w2"), "v0", 2000),
      (2L, Seq("w1"), "v0", 2001),
      (3L, Seq("w3"), "v1", 2002),
    ).toDF("pid", "title", "venue", "year")
    val s = Similarity.globalStats(spark, papers)
    assert(s.wordFreq === Map("w1" -> 2L, "w2" -> 1L, "w3" -> 1L))
    assert(s.venueFreq === Map("v0" -> 2L, "v1" -> 1L))
  }

  test("oracle: globalStats matches DuckDB's word and venue counts") {
    import spark.implicits._
    val (papers, _) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 42L))
    val s = Similarity.globalStats(spark, papers)
    val got = (s.wordFreq.toSeq.map { case (w, f) => ("w", w, f) } ++
      s.venueFreq.toSeq.map { case (v, f) => ("v", v, f) }).toDF("kind", "key", "f")
    Oracle.assertEquivalent(
      got,
      """SELECT 'w' AS kind, w AS key, count(*) AS f
        |FROM (SELECT unnest(string_split(title, ' ')) AS w FROM papers) WHERE w <> '' GROUP BY w
        |UNION ALL
        |SELECT 'v' AS kind, venue AS key, count(*) AS f FROM papers GROUP BY venue""".stripMargin,
      "papers" -> papers.select(concat_ws(" ", col("title")).as("title"), col("venue")),
    )
  }

  /** Random profiles of one name: topic, signature and noise words with
    * repeats, repeated venues, cliques drawn from a small shared pool, and WL
    * maps of a few ego graphs (or none at all).
    */
  private val profileGen: Gen[VertexProfile] = {
    val words = Seq("t0_w1", "t0_w2", "t0_w3", "t1_w1", "st3_w2", "sig_t4_w1", "g_w1", "rare", "common")
    val venues = Seq("v0", "v1", "v2", "gv0")
    val cliques = for (Seq(y, z) <- Seq("u", "x", "y", "z").combinations(2).toSeq) yield Profiles.encodeClique(y, z)
    val adj = Map(
      "a#c0" -> Array("b#c0", "c#c0"),
      "a#c1" -> Array("b#c0"),
      "b#c0" -> Array("a#c0", "a#c1", "c#c0"),
      "c#c0" -> Array("a#c0", "b#c0"),
    )
    val names = Map("a#c0" -> "a", "a#c1" -> "a", "b#c0" -> "b", "c#c0" -> "c")
    for {
      vid <- Gen.oneOf("a#c0", "a#c1", "a#p7")
      pids <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, Gen.choose(1L, 40L))).map(_.distinct.sorted)
      wordYears <- Gen.listOf(Gen.zip(Gen.oneOf(words), Gen.choose(1990, 2010)))
      nVenues <- Gen.oneOf(0, pids.size)
      vs <- Gen.listOfN(nVenues, Gen.oneOf(venues))
      cs <- Gen.someOf(cliques)
      wl <- Gen.frequency(1 -> Gen.const(Map.empty[String, Int]), 4 -> Gen.const(WlKernel.features(vid, "a", adj, names, 2)))
    } yield VertexProfile(vid, "a", pids, wordYears, vs.sorted, cs.toSeq.sorted, wl)
  }

  test("γ from precomputed facts equals the pairwise reference exactly") {
    forAll(Gen.zip(profileGen, profileGen), samples = 300) { case (pi, pj) =>
      val got = Similarity.gamma(Facts(pi), Facts(pj), stats)
      val want = SimilaritySpec.gammaReference(pi, pj, stats)
      (0 until Similarity.NumFeatures).foreach(k => assert(got(k) === want(k), s"γ${k + 1} of $pi, $pj"))
    }
  }

  test("candidatePairs emits each unordered same-name pair once") {
    import spark.implicits._
    val profiles = Seq(
      prof("a#c0", name = "a"),
      prof("a#c1", name = "a"),
      prof("a#p9", name = "a"),
      prof("b#c0", name = "b"),
    ).toDS()
    val pairs = Similarity.candidatePairs(spark, profiles, stats).collect()
    assert(pairs.length === 3) // C(3,2) for 'a', none for lone 'b'
    assert(pairs.forall(p => p.vi < p.vj))
    assert(pairs.forall(_.name == "a"))
  }
}

object SimilaritySpec {

  /** γ computed pair by pair from the two profiles, each side's inputs
    * rebuilt for every pair: the reference for [[Similarity.Facts]].
    */
  def gammaReference(pi: VertexProfile, pj: VertexProfile, stats: GlobalStats): Array[Double] = {
    def safeLogInv(f: Long): Double = 1.0 / math.log(math.max(f, 2L).toDouble)
    val tau = math.max(1, math.min(pi.nPapers, pj.nPapers)).toDouble

    val clique = pi.cliques.toSet.intersect(pj.cliques.toSet).size / tau

    def center(p: VertexProfile): Option[Array[Double]] = {
      val ws = p.wordYears.map(_._1).distinct
      if (ws.isEmpty) None else Some(VectorOps.mean(ws.map(w => WordVectors.vector(w))))
    }
    val interest = (center(pi), center(pj)) match {
      case (Some(a), Some(b)) => math.max(0.0, VectorOps.cosine(a, b))
      case _                  => 0.0
    }

    val yi = pi.wordYears.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val yj = pj.wordYears.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    val time = yi.keySet.intersect(yj.keySet).iterator.map { b =>
      val minDiff = (for (a <- yi(b); c <- yj(b)) yield math.abs(a - c)).min
      math.exp(-Similarity.Alpha * minDiff) * safeLogInv(stats.wordFreq.getOrElse(b, 1L))
    }.sum / tau

    def representativeVenue(p: VertexProfile): Option[String] =
      if (p.venues.isEmpty) None
      else Some(p.venues.groupBy(identity).map { case (v, vs) => (v, vs.size) }.toSeq.sortBy { case (v, c) => (-c, v) }.head._1)
    val repCommunity = (representativeVenue(pi), representativeVenue(pj)) match {
      case (Some(hi), Some(hj)) =>
        pj.venues.count(_ == hi).toDouble / pj.venues.size + pi.venues.count(_ == hj).toDouble / pi.venues.size
      case _ => 0.0
    }

    val community = pi.venues.toSet.intersect(pj.venues.toSet).iterator
      .map(h => safeLogInv(stats.venueFreq.getOrElse(h, 1L))).sum / tau

    Array(WlKernel.normalized(pi.wl, pj.wl), clique, interest, time, repCommunity, community)
  }
}
