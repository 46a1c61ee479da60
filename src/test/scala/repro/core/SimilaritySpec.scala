package repro.core

import repro.SparkSpec
import Model.VertexProfile
import Similarity.GlobalStats

class SimilaritySpec extends SparkSpec {

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
    assert(Similarity.gamma(p, p, stats).length === Similarity.NumFeatures)
  }

  test("γ2: clique coincidence counts shared co-author pairs over τ") {
    val c1 = Seq(Profiles.encodeClique("x", "y"), Profiles.encodeClique("x", "z"))
    val c2 = Seq(Profiles.encodeClique("y", "x"))
    val p1 = prof("a#c0", pids = Seq(1, 2), cliques = c1)
    val p2 = prof("a#c1", pids = Seq(3), cliques = c2)
    // τ = min(2, 1) = 1; intersection = {(x,y)} (encode canonicalises order)
    assert(Similarity.cliqueCoincidence(p1, p2) === 1.0)
  }

  test("γ2 is zero without shared cliques") {
    val p1 = prof("a#c0", cliques = Seq(Profiles.encodeClique("x", "y")))
    val p2 = prof("a#c1", cliques = Seq(Profiles.encodeClique("u", "w")))
    assert(Similarity.cliqueCoincidence(p1, p2) === 0.0)
  }

  test("γ3: same-topic keyword sets give higher cosine than cross-topic") {
    val sameA = prof("a#c0", wordYears = Seq(("t0_w1", 2000), ("t0_w2", 2001)))
    val sameB = prof("a#c1", wordYears = Seq(("t0_w3", 2002), ("t0_w4", 2003)))
    val crossB = prof("a#c2", wordYears = Seq(("t9_w3", 2002), ("t9_w4", 2003)))
    val same = Similarity.interestCosine(sameA, sameB)
    val cross = Similarity.interestCosine(sameA, crossB)
    assert(same > cross, s"same-topic $same should beat cross-topic $cross")
    assert(same > 0.3)
  }

  test("γ3 is zero when a side has no keywords") {
    val p1 = prof("a#c0")
    val p2 = prof("a#c1", wordYears = Seq(("t0_w1", 2000)))
    assert(Similarity.interestCosine(p1, p2) === 0.0)
  }

  test("γ4: shared rare word with close years scores high") {
    val p1 = prof("a#c0", wordYears = Seq(("rare", 2000)))
    val p2 = prof("a#c1", wordYears = Seq(("rare", 2000)))
    val p3 = prof("a#c2", wordYears = Seq(("rare", 2015)))
    val near = Similarity.timeConsistency(p1, p2, stats)
    val far = Similarity.timeConsistency(p1, p3, stats)
    assert(near > far, s"near $near vs far $far — decay must punish year gaps")
    assert(near > 0.0)
  }

  test("γ4: rare words outweigh common words") {
    val pr1 = prof("a#c0", wordYears = Seq(("rare", 2000)))
    val pr2 = prof("a#c1", wordYears = Seq(("rare", 2000)))
    val pc1 = prof("a#c0", wordYears = Seq(("common", 2000)))
    val pc2 = prof("a#c1", wordYears = Seq(("common", 2000)))
    assert(Similarity.timeConsistency(pr1, pr2, stats) >
           Similarity.timeConsistency(pc1, pc2, stats))
  }

  test("γ4: min year difference is used when a word recurs") {
    val p1 = prof("a#c0", wordYears = Seq(("rare", 1990), ("rare", 2000)))
    val p2 = prof("a#c1", wordYears = Seq(("rare", 2001)))
    val got = Similarity.timeConsistency(p1, p2, stats)
    val expected = math.exp(-0.62 * 1) / math.log(2.0)
    assert(math.abs(got - expected) < 1e-9)
  }

  test("γ5: representative venue is the modal venue, deterministic on ties") {
    val p = prof("a#c0", venues = Seq("v1", "v0", "v1"))
    assert(Similarity.representativeVenue(p) === Some("v1"))
    val tie = prof("a#c0", venues = Seq("v1", "v0"))
    assert(Similarity.representativeVenue(tie) === Some("v0"))
  }

  test("γ5: mutual concentration in each other's representative venue") {
    val p1 = prof("a#c0", pids = Seq(1, 2), venues = Seq("v0", "v0"))
    val p2 = prof("a#c1", pids = Seq(3, 4), venues = Seq("v0", "v1"))
    // h1 = v0, h2 = v0 (modal of p2 is tie v0<v1 → v0)
    // frac(H2 at v0) = 1/2; frac(H1 at v0) = 2/2
    assert(Similarity.representativeCommunity(p1, p2) === 0.5 + 1.0)
  }

  test("γ5 is bounded in [0, 2] even against a prolific vertex") {
    val big = prof("a#c0", pids = (1L to 60L), venues = Seq.fill(60)("v0"))
    val single = prof("a#p99", pids = Seq(99), venues = Seq("v0"))
    val g = Similarity.representativeCommunity(big, single)
    assert(g === 2.0)
  }

  test("γ5 is zero when either side has no venues") {
    val p1 = prof("a#c0")
    val p2 = prof("a#c1", venues = Seq("v0"))
    assert(Similarity.representativeCommunity(p1, p2) === 0.0)
  }

  test("γ6: rare shared venues outweigh popular ones (Adamic/Adar)") {
    val r1 = prof("a#c0", venues = Seq("v0"))
    val r2 = prof("a#c1", venues = Seq("v0"))
    val g1 = prof("a#c0", venues = Seq("gv0"))
    val g2 = prof("a#c1", venues = Seq("gv0"))
    assert(Similarity.researchCommunity(r1, r2, stats) >
           Similarity.researchCommunity(g1, g2, stats))
  }

  test("γ6 is zero without shared venues") {
    val p1 = prof("a#c0", venues = Seq("v0"))
    val p2 = prof("a#c1", venues = Seq("v1"))
    assert(Similarity.researchCommunity(p1, p2, stats) === 0.0)
  }

  test("all gammas are finite and non-negative on arbitrary profiles") {
    val p1 = prof("a#c0", pids = Seq(1, 2), wordYears = Seq(("rare", 2000), ("t0_w1", 2001)),
      venues = Seq("v0", "v1"), cliques = Seq(Profiles.encodeClique("x", "y")),
      wl = WlKernel.features("a#c0", Map.empty, Map.empty, 2))
    val p2 = prof("a#c1", pids = Seq(3), wordYears = Seq(("common", 1995)),
      venues = Seq("gv0"), wl = WlKernel.features("a#c1", Map.empty, Map.empty, 2))
    val g = Similarity.gamma(p1, p2, stats)
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
