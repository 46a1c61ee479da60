package repro.perfbench

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Evaluation, Iuad}
import repro.dblp.DblpSynth

/** The benchmark's own checks, on a tiny corpus: `sbt test` in perfbench/. */
class BenchSpec extends AnyFunSuite {

  lazy val spark: SparkSession = Main.session(cores = 2, partitions = 4)

  test("the traced rebuild reproduces Iuad.run's assignment and every span is entered") {
    val c = Bench.setUp(spark, DblpSynth.Config(sf = 0.002, seed = 3L), 20)
    val cfg = Iuad.Config()
    val untraced = Iuad.run(spark, c.basePapers, c.baseAuth, cfg)
    val tr = new Tracer(spark.sparkContext)
    spark.sparkContext.addSparkListener(tr)
    val traced = Bench.tracedRun(spark, tr, c.basePapers, c.baseAuth, cfg)
    assert(Checks.fingerprint(traced.gcnRows) == Checks.fingerprint(Checks.rowsOf(untraced.assignment)))
    assert(Checks.fingerprint(traced.scnRows) == Checks.fingerprint(Checks.rowsOf(untraced.scnAssignment)))
    assert(traced.accepted.count(_._2) ==
      untraced.scored.collect().count(_.score >= cfg.delta))
    val spans = tr.snapshot().toMap
    assert(spans.keySet == Bench.PipelineSpans.toSet)
    assert(spans("pairs").jobs > 0 && spans("pairs").taskMs > 0)
    assert(spans("em.fit").jobs == 0)
    assert(spans("assign").rows == traced.gcnRows.length)
  }

  test("held-out papers are the newest testing-name papers and partition the corpus") {
    val c = Bench.setUp(spark, DblpSynth.Config(sf = 0.002, seed = 3L), 20)
    assert(c.heldPids.size == 20)
    assert(c.basePapers.count() + c.newPapers.count() == c.papers.count())
    assert(c.baseAuth.count() + c.newAuth.count() == c.auth.count())
    val testing = Evaluation.ambiguousNames(c.auth).collect().map(_.getString(0)).toSet
    val touching = c.auth.collect().filter(r => testing(r.getAs[String]("name"))).map(_.getAs[Long]("pid")).toSet
    assert(c.heldPids.forall(touching))
    val year = c.papers.collect().map(r => r.getAs[Long]("pid") -> r.getAs[Int]("year")).toMap
    assert((touching -- c.heldPids).map(year).max <= c.heldPids.map(year).min)
  }

  test("the occurrence check catches missing, doubled and unknown occurrences") {
    val occ = Set((1L, "a"), (2L, "a"), (2L, "b"))
    val good = Array((1L, "a", "x"), (2L, "a", "x"), (2L, "b", "y"))
    assert(Checks.oneClusterPerOccurrence(good, occ, "t").isEmpty)
    assert(Checks.oneClusterPerOccurrence(good.init, occ, "t").isDefined)
    assert(Checks.oneClusterPerOccurrence(good :+ ((1L, "a", "z")), occ, "t").isDefined)
    assert(Checks.oneClusterPerOccurrence(good :+ ((3L, "c", "z")), occ, "t").isDefined)
  }

  test("the fingerprint ignores row order and cluster spelling but not the partition") {
    val a = Array((1L, "a", "x"), (2L, "a", "x"), (3L, "a", "y"))
    val renamed = Array((3L, "a", "q"), (1L, "a", "p"), (2L, "a", "p"))
    val moved = Array((1L, "a", "x"), (2L, "a", "y"), (3L, "a", "y"))
    assert(Checks.fingerprint(a) == Checks.fingerprint(renamed))
    assert(Checks.fingerprint(a) != Checks.fingerprint(moved))
  }

  test("arguments are parsed strictly") {
    assert(Main.parse(Array("--workload", "teams", "--seed", "5", "--seconds", "10", "--trace", "1")) ==
      Right(Main.Args(Workloads.byName("teams").get, 5L, 10, trace = true)))
    assert(Main.parse(Array("--workload", "nope", "--seed", "5", "--seconds", "10", "--trace", "1")).isLeft)
    assert(Main.parse(Array("--workload", "teams", "--seed", "5", "--seconds", "10", "--trace", "2")).isLeft)
    assert(Main.parse(Array("--workload", "teams", "--seed", "5")).isLeft)
  }
}
