package repro.core

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.dblp.DblpSynth

/** Ad-hoc diagnostic main for GCN over-merge analysis (not a test suite). */
object DebugGcn {
  def main(args: Array[String]): Unit = {
    val spark = SparkSpec.shared
    import spark.implicits._
    val cfg = DblpSynth.Config(sf = 0.005, seed = 42L)
    val (papers, auth) = DblpSynth.generate(spark, cfg)
    papers.cache(); auth.cache()
    val r = Iuad.run(spark, papers, auth, Iuad.Config(eta = 3, seed = 7L))

    println(s"model p = ${r.model.p}")
    println("matched dists:   " + r.model.matched.mkString(" | "))
    println("unmatched dists: " + r.model.unmatched.mkString(" | "))

    // truth per vid pair: join candidate pairs with per-vid majority truth
    val vidTruth = r.scn.vertexPapers
      .join(auth.select("pid", "name", "authorId"), Seq("pid", "name"))
      .groupBy("vid")
      .agg(countDistinct("authorId").as("nAuth"), first("authorId").as("anyAuthor"),
           collect_set("authorId").as("authors"))
    val vt = vidTruth.select("vid", "authors").as[(String, Seq[Long])].collect().toMap

    val scored = r.scored.collect()
    println(s"candidate pairs: ${scored.length}")
    val accepted = scored.filter(_.score >= 0.0)
    println(s"accepted pairs (delta=0): ${accepted.length}")

    def isTrueMatch(vi: String, vj: String): Option[Boolean] =
      for (a <- vt.get(vi); b <- vt.get(vj)) yield a.toSet.intersect(b.toSet).nonEmpty

    val accT = accepted.flatMap(p => isTrueMatch(p.vi, p.vj))
    println(s"accepted: true=${accT.count(identity)} false=${accT.count(!_)}")

    // gamma stats by truth
    val pairsWithTruth = r.pairs.collect().flatMap { pg =>
      isTrueMatch(pg.vi, pg.vj).map(t => (t, pg.g))
    }
    val (m, u) = pairsWithTruth.partition(_._1)
    def meanOf(xs: Array[(Boolean, Array[Double])], i: Int): Double =
      if (xs.isEmpty) Double.NaN else xs.map(_._2(i)).sum / xs.length
    println(s"true-matched pairs: ${m.length}, true-unmatched: ${u.length}")
    (0 until 6).foreach { i =>
      println(f"gamma${i + 1}: matchedMean=${meanOf(m, i)}%.4f unmatchedMean=${meanOf(u, i)}%.4f")
    }
    // score distribution by truth
    val scoreByTruth = scored.flatMap(p => isTrueMatch(p.vi, p.vj).map(t => (t, p.score)))
    val (ms, us) = scoreByTruth.partition(_._1)
    def pct(xs: Array[Double], q: Double) = if (xs.isEmpty) Double.NaN else xs.sorted.apply(math.min(((xs.length - 1) * q).toInt, xs.length - 1))
    println(f"matched score  p10=${pct(ms.map(_._2), 0.1)}%.2f p50=${pct(ms.map(_._2), 0.5)}%.2f p90=${pct(ms.map(_._2), 0.9)}%.2f")
    println(f"unmatched score p10=${pct(us.map(_._2), 0.1)}%.2f p50=${pct(us.map(_._2), 0.5)}%.2f p90=${pct(us.map(_._2), 0.9)}%.2f")
    println(f"unmatched accept rate=${us.count(_._2 >= 0).toDouble / math.max(1, us.length)}%.4f")
    println(f"matched accept rate=${ms.count(_._2 >= 0).toDouble / math.max(1, ms.length)}%.4f")

    // inspect false accepted pairs
    val gByPair = r.pairs.collect().map(pg => (pg.vi, pg.vj) -> pg.g).toMap
    val falseAccepted = accepted.filter(p => isTrueMatch(p.vi, p.vj).contains(false))
    println(s"--- false accepted examples (of ${falseAccepted.length}) ---")
    falseAccepted.sortBy(-_.score).take(15).foreach { p =>
      val g = gByPair((p.vi, p.vj)).map(x => f"$x%.3f").mkString(",")
      println(f"score=${p.score}%8.1f ${p.vi} <-> ${p.vj} g=[$g] authors ${vt(p.vi)} vs ${vt(p.vj)}")
    }
    val falseG = falseAccepted.map(p => gByPair((p.vi, p.vj)))
    (0 until 6).foreach { i =>
      val xs = falseG.map(_(i))
      if (xs.nonEmpty) println(f"falseAccept gamma${i + 1} mean=${xs.sum / xs.size}%.4f")
    }
    // team/community of the involved authors
    val teamOfAuthor = (a: Long) => DblpSynth.teamOf(a, cfg)
    val sameComm = falseAccepted.count { p =>
      val t1 = vt(p.vi).map(a => DblpSynth.communityOf(teamOfAuthor(a), cfg)).toSet
      val t2 = vt(p.vj).map(a => DblpSynth.communityOf(teamOfAuthor(a), cfg)).toSet
      t1.intersect(t2).nonEmpty
    }
    println(s"false accepted sharing a community: $sameComm / ${falseAccepted.length}")

    // cluster size distribution
    val sizes = r.mapping.groupBy("cluster").count().select("count").as[Long].collect().sorted.reverse
    println(s"clusters: ${sizes.length}, top sizes: ${sizes.take(10).mkString(",")}")

    // delta sweep: final paper-pair metrics per threshold
    val evalNames = Evaluation.ambiguousNames(auth).cache()
    val scnM = Evaluation.pairwiseMicro(spark,
      r.scnAssignment, auth, Some(evalNames))
    println(s"delta=SCN   $scnM")
    for (delta <- Seq(0.0, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0)) {
      val mapping = GcnBuilder.clusterMapping(spark, r.scn.vertices, r.scored, delta)
      val assignment = GcnBuilder.assignment(r.scn.vertexPapers, mapping)
      val m = Evaluation.pairwiseMicro(spark, assignment, auth, Some(evalNames))
      println(s"delta=$delta   $m")
    }
    spark.stop()
  }
}
