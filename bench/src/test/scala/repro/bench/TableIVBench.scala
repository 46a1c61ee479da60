package repro.bench

import repro.exp.Experiments

/** Table IV: effect of the two stages.
  *
  * Paper: SCN 0.6402/0.8662/0.4374/0.5813 → GCN 0.8174/0.8608/0.8113/0.8353,
  * i.e. recall +0.374, precision −0.005, F +0.254. Shape to preserve: a large
  * recall jump at a small precision cost, F1 strictly better.
  */
class TableIVBench extends BenchSpec {

  test("Table IV: effect of two stages") {
    val Seq(Experiments.StageEffect(scn, gcn)) = Bench.record("IV")(Seq(Experiments.tableIV(Bench.iuad)))

    assert(scn.precision > 0.85, s"SCN must be high precision: $scn")
    assert(scn.recall < 0.75, s"SCN recall must be the weak spot: $scn")
    assert(gcn.recall > scn.recall + 0.15, s"GCN must lift recall strongly: $scn -> $gcn")
    assert(gcn.precision > scn.precision - 0.15, s"GCN precision cost too high: $scn -> $gcn")
    assert(gcn.f1 > scn.f1 + 0.05, s"GCN must clearly improve F1: $scn -> $gcn")
  }
}
