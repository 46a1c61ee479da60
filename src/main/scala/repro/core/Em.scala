package repro.core

import ExpFamily._

/** Two-component (matched M / unmatched U) EM over similarity vectors
  * (§V-C). Features are conditionally independent given the component, each
  * following the exponential-family distribution configured per feature;
  * the M-step applies the closed-form weighted MLEs of Table I.
  *
  * Runs on the driver over the (10 %) training sample — thousands of rows —
  * while scoring of all pairs is distributed (see [[GcnBuilder]]).
  */
object Em {

  /** Learned model: prior p = P(r ∈ M) and per-feature component densities. */
  final case class EmModel(
      p: Double,
      matched: Seq[Dist],
      unmatched: Seq[Dist],
  ) extends Serializable {

    def logLikM(g: Array[Double]): Double = {
      var s = math.log(p); var i = 0
      while (i < matched.length) { s += matched(i).logPdf(g(i)); i += 1 }
      s
    }

    def logLikU(g: Array[Double]): Double = {
      var s = math.log(1.0 - p); var i = 0
      while (i < unmatched.length) { s += unmatched(i).logPdf(g(i)); i += 1 }
      s
    }

    /** Matching score sc_j = log(P(M|γ)/P(U|γ)) (Eq. 11). */
    def score(g: Array[Double]): Double = logLikM(g) - logLikU(g)
  }

  /** Default per-feature families: γ1/γ3 are bounded cosines (Gaussian);
    * γ2/γ4/γ6 are sparse non-negative sums (Exponential); γ5 is bimodal —
    * venue-match mass near 2 plus a zero spike — which only the Multinomial
    * of Table I represents without saturating (an Exponential fit turns any
    * venue equality into near-infinite log-odds).
    */
  final case class Config(
      dists: Seq[String] = Seq("gaussian", "exponential", "gaussian", "exponential", "multinomial", "exponential"),
  )

  // EM stops after MaxIters iterations, or once the log-likelihood moves by
  // less than Tol relative to its magnitude.
  private val MaxIters = 100
  private val Tol = 1e-6
  private val InitQuantile = 0.85

  /** Fit the mixture.
    *
    * @param gammas  training similarity vectors
    * @param knownMatched extra vectors known to be matched (from the
    *        split-vertex balancing strategy, §V-F.2) — their responsibilities
    *        are clamped to 1
    * @return learned model
    */
  def fit(gammas: Array[Array[Double]], cfg: Config = Config(), knownMatched: Array[Array[Double]] = Array.empty): EmModel = {
    require(gammas.nonEmpty || knownMatched.nonEmpty, "EM needs training vectors")
    val k = (gammas ++ knownMatched).head.length
    require(cfg.dists.length == k, s"need ${k} distribution kinds, got ${cfg.dists.length}")
    val all = gammas ++ knownMatched
    val n = all.length
    val nFree = gammas.length

    val his = Array.tabulate(k)(i => math.max(all.iterator.map(_(i)).max, 1e-9))

    // Init responsibilities: pairs whose summed feature z-score is in the top
    // (1 - InitQuantile) start as likely-matched; known matched start at 1.
    val sums = all.map(_.sum)
    val sortedSums = sums.take(nFree).sorted
    val cut =
      if (nFree == 0) Double.MaxValue
      else sortedSums(math.min((InitQuantile * nFree).toInt, nFree - 1))
    val l = Array.tabulate(n) { j =>
      if (j >= nFree) 1.0
      else if (sums(j) >= cut) 0.9
      else 0.1
    }

    var model: EmModel = mStep(all, l, cfg, his)
    var prevLl = Double.NegativeInfinity
    var it = 0
    var done = false
    while (it < MaxIters && !done) {
      // E-step
      var j = 0
      var ll = 0.0
      while (j < n) {
        val g = all(j)
        val m = model.logLikM(g); val u = model.logLikU(g)
        val hi = math.max(m, u)
        val em = math.exp(m - hi); val eu = math.exp(u - hi)
        ll += hi + math.log(em + eu)
        l(j) = if (j >= nFree) 1.0 else em / (em + eu)
        j += 1
      }
      // M-step
      model = mStep(all, l, cfg, his)
      if (math.abs(ll - prevLl) < Tol * math.max(1.0, math.abs(prevLl))) done = true
      prevLl = ll
      it += 1
    }
    model
  }

  private def mStep(all: Array[Array[Double]], l: Array[Double], cfg: Config, his: Array[Double]): EmModel = {
    val n = all.length
    val k = cfg.dists.length
    val w1 = l
    val w2 = l.map(1.0 - _)
    val p = math.min(math.max(w1.sum / n, 1e-4), 1.0 - 1e-4)
    val matched = (0 until k).map { i =>
      ExpFamily.fit(cfg.dists(i), all.map(_(i)), w1, his(i))
    }
    val unmatched = (0 until k).map { i =>
      ExpFamily.fit(cfg.dists(i), all.map(_(i)), w2, his(i))
    }
    EmModel(p, matched, unmatched)
  }
}
