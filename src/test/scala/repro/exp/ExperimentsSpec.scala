package repro.exp

import java.nio.file.Files
import org.apache.spark.storage.StorageLevel
import org.json4s._
import org.json4s.jackson.JsonMethods.parse
import repro.SparkSpec

/** Harness smoke tests at tiny scale — the real numbers come from
  * `bench/test`; here we verify the plumbing of every table generator.
  */
class ExperimentsSpec extends SparkSpec {

  private lazy val c = Experiments.corpus(spark, sf = 0.003, seed = 42L)
  private lazy val iuad = Experiments.runIuad(spark, c)

  test("corpus materialises papers, authorships and eval names") {
    assert(c.papers.count() > 0)
    assert(c.auth.count() > c.papers.count()) // multi-author papers exist
    assert(c.evalNames.count() >= 5)
  }

  test("subsample keeps roughly the requested fraction") {
    val half = Experiments.subsample(c, 0.5)
    val ratio = half.papers.count().toDouble / c.papers.count()
    assert(ratio > 0.35 && ratio < 0.65, s"ratio $ratio")
    // subsampling is consistent between papers and authorships
    assert(half.auth.select("pid").distinct().count() === half.papers.count())
  }

  test("subsample at fraction 1.0 is identity") {
    assert(Experiments.subsample(c, 1.0).papers.count() === c.papers.count())
  }

  test("tableII reports per-name author and paper counts") {
    val t = Experiments.tableII(spark, c)
    assert(t.nonEmpty)
    t.foreach { r =>
      assert(r.authors >= 2, s"eval name ${r.name} not ambiguous")
      assert(r.papers >= r.authors, "papers >= authors per name")
    }
  }

  test("runIuad returns SCN and GCN metrics with the Table IV ordering") {
    val Experiments.StageEffect(scn, gcn) = Experiments.tableIV(iuad)
    assert(scn.precision > gcn.precision - 0.15)
    assert(gcn.recall >= scn.recall)
    assert(gcn.f1 >= scn.f1 - 1e-9)
  }

  test("runUnsupervised returns metrics over the testing names") {
    val m = Experiments.runUnsupervised(spark, c, repro.baselines.Unsupervised.Anon())
    assert(m.tp + m.fp + m.fn + m.tn > 0)
  }

  test("runSupervised covers all labelled pairs") {
    val m = Experiments.runSupervised(spark, c, "rf")
    assert(m.tp + m.fp + m.fn + m.tn > 0)
  }

  test("tableVI produces rows with timing") {
    val rows = Experiments.tableVI(spark, c, sizes = Seq(20))
    assert(rows.length === 1)
    assert(rows.head.nNew === 20)
    assert(rows.head.avgMsPerPaper > 0.0)
    assert(rows.head.base.tp + rows.head.base.tn > 0)
  }

  test("tableV times every method per fraction and evaluates IUAD's stages") {
    val fractions = Seq(0.3, 1.0)
    c.evalNames.count()
    val cachedBefore = spark.sparkContext.getPersistentRDDs.size
    val rows = Experiments.tableV(spark, c, fractions)
    val methods = Experiments.unsupervisedClusterers.map(_.id) :+ "IUAD"
    assert(rows.map(r => (r.fraction, r.algorithm)) === fractions.flatMap(f => methods.map(m => (f, m))))
    rows.foreach { r =>
      assert(r.secondsPerName > 0.0, s"$r")
      assert(r.quality.isDefined === (r.algorithm == "IUAD"), s"$r")
    }
    rows.flatMap(_.quality).foreach(q => assert(q.gcn.tp + q.gcn.fp + q.gcn.fn + q.gcn.tn > 0))
    // Each fraction's subsample is unpersisted, but never the corpus itself
    // (fraction 1.0); each Iuad.run keeps at most its two stage outputs.
    Seq(c.papers, c.auth, c.evalNames).foreach(df => assert(df.storageLevel !== StorageLevel.NONE))
    assert(spark.sparkContext.getPersistentRDDs.size - cachedBefore <= 2 * fractions.size)
  }

  test("write emits JSON that parses back with sf, seed and one entry per row") {
    val dir = Files.createTempDirectory("experiments").toFile
    val names = Experiments.tableII(spark, c)
    val json = parse(Experiments.write("II", c, 1.5, names, dir))
    assert(json \ "table" === JString("II"))
    assert(json \ "sf" === JDouble(0.003))
    assert(json \ "seed" === JInt(42))
    assert(json \ "wallS" === JDouble(1.5))
    assert((json \ "rows").children.length === names.length)
    assert(json \ "rows" \ "name" === JArray(names.map(r => JString(r.name)).toList))

    val stages = Experiments.tableIV(iuad)
    val row = parse(Experiments.write("IV", c, 0.0, Seq(stages), dir)) \ "rows"
    val gcn = row(0) \ "gcn"
    assert(Seq("accuracy", "precision", "recall", "f1").map(gcn \ _) ===
      Seq(stages.gcn.accuracy, stages.gcn.precision, stages.gcn.recall, stages.gcn.f1).map(JDouble(_)))
    assert(row(0) \ "scn" \ "tp" === JInt(stages.scn.tp))
    dir.listFiles().foreach(_.delete()); dir.delete()
  }
}
