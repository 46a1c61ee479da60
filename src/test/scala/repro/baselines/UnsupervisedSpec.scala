package repro.baselines

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Evaluation
import repro.core.Model.PaperRec
import repro.dblp.DblpSynth

class UnsupervisedSpec extends SparkSpec {
  import spark.implicits._

  /** Hand-built ego-network: two authors share a name; author A works with
    * {alice, bob} on topic 0 at venue v0; author B with {carol, dave} on
    * topic 5 at venue v9.
    */
  private val egoPapers: IndexedSeq[PaperRec] = IndexedSeq(
    PaperRec(1, Seq("alice", "bob"), Seq("t0_w1", "t0_w2"), "v0", 2000),
    PaperRec(2, Seq("alice", "bob"), Seq("t0_w2", "t0_w3"), "v0", 2001),
    PaperRec(3, Seq("alice"), Seq("t0_w1"), "v1", 2002),
    PaperRec(4, Seq("carol", "dave"), Seq("t5_w1", "t5_w2"), "v9", 2010),
    PaperRec(5, Seq("carol", "dave"), Seq("t5_w2"), "v9", 2011),
    PaperRec(6, Seq("dave"), Seq("t5_w3", "t5_w1"), "v8", 2012),
  )

  private def splitQuality(labels: Array[Int]): Boolean = {
    // Papers 0-2 together-ish, 3-5 together-ish, and the groups differ.
    labels(0) != labels(3) && labels(0) != labels(4) && labels(1) != labels(3)
  }

  test("ANON separates the two collaboration circles") {
    val l = Unsupervised.Anon().clusterName(egoPapers)
    assert(l.length === 6)
    assert(splitQuality(l), s"labels ${l.toSeq}")
  }

  test("NetE separates the two collaboration circles") {
    val l = Unsupervised.NetE().clusterName(egoPapers)
    assert(splitQuality(l), s"labels ${l.toSeq}")
  }

  test("Aminer separates the two collaboration circles") {
    val l = Unsupervised.AminerB().clusterName(egoPapers)
    assert(splitQuality(l), s"labels ${l.toSeq}")
  }

  test("GHOST separates the two collaboration circles") {
    val l = Unsupervised.Ghost().clusterName(egoPapers)
    assert(splitQuality(l), s"labels ${l.toSeq}")
  }

  test("all methods handle the empty and single-paper cases") {
    val methods = Seq(Unsupervised.Anon(), Unsupervised.NetE(), Unsupervised.AminerB(), Unsupervised.Ghost())
    methods.foreach { m =>
      assert(m.clusterName(IndexedSeq.empty).isEmpty, m.id)
      assert(m.clusterName(IndexedSeq(egoPapers.head)).toSeq === Seq(0), m.id)
    }
  }

  test("runner distributes per-name clustering and keys clusters by name") {
    val cfg = DblpSynth.Config(sf = 0.002, seed = 33L)
    val (papers, auth) = DblpSynth.generate(spark, cfg)
    val evalNames = Evaluation.ambiguousNames(auth)
    val out = Baselines.run(spark, papers, auth, Unsupervised.Anon(), evalNames).cache()
    assert(out.count() > 0)
    // every row's cluster is prefixed by its name
    val bad = out.filter(!col("cluster").startsWith(col("name"))).count()
    assert(bad === 0L)
    // assignment covers exactly the occurrences of eval names
    val expected = auth.join(evalNames, Seq("name")).select("pid", "name").distinct().count()
    assert(out.count() === expected)
  }

  test("baselines produce worse F1 than trivially using ground truth") {
    val cfg = DblpSynth.Config(sf = 0.002, seed = 34L)
    val (papers, auth) = DblpSynth.generate(spark, cfg)
    val evalNames = Evaluation.ambiguousNames(auth)
    val out = Baselines.run(spark, papers, auth, Unsupervised.Anon(), evalNames)
    val m = Evaluation.pairwiseMicro(spark, out.select("pid", "name", "cluster"), auth, Some(evalNames))
    assert(m.f1 > 0.05 && m.f1 < 1.0, s"ANON metrics out of sane band: $m")
  }

  /** Labels each paper by the hash of its record (co-name order included),
    * so the runner's output shows exactly what a clusterer is given.
    */
  private object Echo extends Baselines.NameClusterer {
    val id = "echo"
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int] = papers.map(_.hashCode).toArray
  }

  test("the runner's records, NetE and Aminer do not depend on shuffle partitions or input row order") {
    val (papers, auth) = DblpSynth.generate(spark, DblpSynth.Config(sf = 0.002, seed = 35L))
    val evalNames = Evaluation.ambiguousNames(auth).cache()
    for (cl <- Seq(Echo, Unsupervised.NetE(), Unsupervised.AminerB())) {
      val runs = inThreeLayouts(papers, auth) { case Seq(p, a) =>
        Baselines.run(spark, p, a, cl, evalNames).as[(Long, String, String)].collect().sorted.toSeq
      }
      assert(runs.head.nonEmpty, cl.id)
      assert(runs.distinct.size === 1, cl.id)
    }
  }
}
