package repro.bench

import repro.exp.Experiments

/** Table VI: incremental author disambiguation.
  *
  * Paper (100/200/300 new papers): MicroF 0.8315→0.8218, 0.8268→0.8252,
  * 0.8348→0.8255; avg time 45–48 ms per paper. Shape to preserve: judging a
  * new paper with only the posterior (no retraining) loses at most a few
  * points of MicroF and costs milliseconds per paper.
  */
class TableVIBench extends BenchSpec {

  test("Table VI: incremental performance and efficiency") {
    val rows = Bench.record("VI")(Experiments.tableVI(spark, Bench.corpus, Seq(100, 200, 300)))

    rows.foreach { r =>
      assert(r.base.f1 > 0.5, s"base GCN too weak: ${r.base}")
      // Incremental judging must not collapse quality (paper: ~1 point drop).
      assert(r.combined.f1 > r.base.f1 - 0.10,
        s"incremental degraded too much: ${r.base} -> ${r.combined}")
      // Efficiency: posterior-only judging is fast. The paper reports <50 ms
      // on a laptop against full DBLP; we allow generous slack for the
      // distributed-overhead path at our scale.
      assert(r.avgMsPerPaper < 1000.0, s"too slow: ${r.avgMsPerPaper} ms/paper")
    }
  }
}
