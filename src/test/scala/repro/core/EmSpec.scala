package repro.core

import repro.{SparkSpec}
import repro.util.Rng

class EmSpec extends SparkSpec {

  /** Two well-separated synthetic populations over 6 features mimicking the
    * γ distributions: matched pairs have high cosines and denser exponential
    * features; unmatched pairs sit near zero.
    */
  private def synth(nM: Int, nU: Int, seed: Long): (Array[Array[Double]], Array[Array[Double]]) = {
    def matched(i: Int) = Array(
      0.8 + 0.1 * Rng.gaussian(seed, i.toLong, 1L).min(1.5).max(-1.5) * 0.5,
      math.abs(Rng.gaussian(seed, i.toLong, 2L)) * 0.5 + 0.3,
      0.7 + 0.1 * Rng.gaussian(seed, i.toLong, 3L).min(1.5).max(-1.5) * 0.5,
      math.abs(Rng.gaussian(seed, i.toLong, 4L)) * 0.3 + 0.2,
      math.abs(Rng.gaussian(seed, i.toLong, 5L)) * 0.4 + 0.4,
      math.abs(Rng.gaussian(seed, i.toLong, 6L)) * 0.3 + 0.3,
    )
    def unmatched(i: Int) = Array(
      0.1 + 0.05 * math.abs(Rng.gaussian(seed, i.toLong, 11L)),
      math.abs(Rng.gaussian(seed, i.toLong, 12L)) * 0.05,
      0.05 + 0.05 * math.abs(Rng.gaussian(seed, i.toLong, 13L)),
      math.abs(Rng.gaussian(seed, i.toLong, 14L)) * 0.02,
      math.abs(Rng.gaussian(seed, i.toLong, 15L)) * 0.05,
      math.abs(Rng.gaussian(seed, i.toLong, 16L)) * 0.03,
    )
    (Array.tabulate(nM)(matched), Array.tabulate(nU)(unmatched))
  }

  test("EM separates two clear populations") {
    val (m, u) = synth(60, 300, 1L)
    val model = Em.fit(m ++ u)
    // matched examples should score higher than unmatched ones
    val mScores = m.map(g => model.score(g))
    val uScores = u.map(g => model.score(g))
    val mMean = mScores.sum / mScores.length
    val uMean = uScores.sum / uScores.length
    assert(mMean > uMean, s"matched mean $mMean vs unmatched mean $uMean")
    // separation is decisive, not marginal
    assert(mMean - uMean > 5.0)
  }

  test("scores give near-perfect ranking on separable data") {
    val (m, u) = synth(50, 250, 2L)
    val model = Em.fit(m ++ u)
    val threshold = 0.0
    val tpr = m.count(g => model.score(g) >= threshold).toDouble / m.length
    val fpr = u.count(g => model.score(g) >= threshold).toDouble / u.length
    assert(tpr > 0.9, s"tpr $tpr")
    assert(fpr < 0.1, s"fpr $fpr")
  }

  test("prior p reflects the matched share") {
    val (m, u) = synth(100, 400, 3L)
    val model = Em.fit(m ++ u)
    assert(model.p > 0.05 && model.p < 0.5, s"p = ${model.p}")
  }

  test("known matched pairs steer the matched component") {
    val (m, u) = synth(10, 300, 4L)
    val model = Em.fit(u, knownMatched = m) // free data is all-unmatched
    val mMean = m.map(g => model.score(g)).sum / m.length
    val uMean = u.map(g => model.score(g)).sum / u.length
    assert(mMean > uMean)
  }

  test("score = logLikM - logLikU identity") {
    val (m, u) = synth(20, 60, 6L)
    val model = Em.fit(m ++ u)
    val g = m.head
    assert(math.abs(model.score(g) - (model.logLikM(g) - model.logLikU(g))) < 1e-12)
  }

  test("fit rejects empty training data") {
    intercept[IllegalArgumentException] { Em.fit(Array.empty) }
  }

  test("fit rejects wrong distribution count") {
    intercept[IllegalArgumentException] {
      Em.fit(Array(Array(0.1, 0.2)), Em.Config(dists = Seq("gaussian")))
    }
  }

  test("multinomial-configured features train and score") {
    val (m, u) = synth(40, 160, 7L)
    val cfg = Em.Config(dists = Seq.fill(6)("multinomial"))
    val model = Em.fit(m ++ u, cfg)
    val mMean = m.map(g => model.score(g)).sum / m.length
    val uMean = u.map(g => model.score(g)).sum / u.length
    assert(mMean > uMean)
  }

  test("EM is deterministic for fixed input") {
    val (m, u) = synth(30, 90, 8L)
    val m1 = Em.fit(m ++ u)
    val m2 = Em.fit(m ++ u)
    assert(m1.p === m2.p)
    assert(m1.score(m.head) === m2.score(m.head))
  }
}
