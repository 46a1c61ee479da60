package repro.baselines

import repro.util.Rng

/** Minimal CART-style trees — the shared base learner for the supervised
  * baselines (AdaBoost / GBDT / RF / XGBoost-like). Driver-side: the
  * pairwise training sets are small (thousands of rows, ~10 features).
  * Split search is a sorted prefix-sum sweep: O(n log n) per feature/node.
  */
object Tree {

  sealed trait Node extends Serializable {
    def predict(x: Array[Double]): Double = this match {
      case Leaf(v)                  => v
      case Split(f, t, left, right) => if (x(f) <= t) left.predict(x) else right.predict(x)
    }
  }
  final case class Leaf(value: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  /** Second-order (Newton) tree on per-row gradients `g` and hessians `h`
    * (Chen & Guestrin, XGBoost): split gain
    * ½[G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)], leaf −G/(H+λ). With
    * g = −w·y, h = w and λ = 0 it is the weighted least-squares tree on y:
    * the gain is half the SSE reduction and the leaf the weighted mean. A
    * node whose Σg²/h − G²/H (the SSE, in those terms) is at most 1e-12 is a
    * leaf.
    *
    * @param featureFrac fraction of features considered per split (RF-style
    *                    column subsampling); 1.0 = all
    * @param seed        drives deterministic feature subsampling
    */
  def fit(
      xs: Array[Array[Double]],
      g: Array[Double],
      h: Array[Double],
      maxDepth: Int,
      minLeaf: Int = 1,
      lambda: Double = 0.0,
      featureFrac: Double = 1.0,
      seed: Long = 0L,
  ): Node = {
    require(xs.length == g.length && g.length == h.length && xs.nonEmpty,
      "xs/g/h must be equal-length and non-empty")
    val nf = xs(0).length

    def scoreOf(sg: Double, sh: Double): Double = if (sh + lambda <= 0.0) 0.0 else sg * sg / (sh + lambda)

    def grow(idx: Array[Int], depth: Int, nodeSeed: Long): Node = {
      var sg = 0.0; var sh = 0.0; var sgg = 0.0
      idx.foreach { i => sg += g(i); sh += h(i); if (h(i) > 0.0) sgg += g(i) * g(i) / h(i) }
      val leaf = Leaf(if (sh + lambda <= 0.0) 0.0 else -sg / (sh + lambda))
      if (depth >= maxDepth || idx.length <= 2 * minLeaf) return leaf
      if (sgg - (if (sh <= 0.0) 0.0 else sg * sg / sh) <= 1e-12) return leaf
      val parent = scoreOf(sg, sh)

      val feats =
        if (featureFrac >= 1.0) (0 until nf).toArray
        else {
          val k = math.max(1, (nf * featureFrac).round.toInt)
          (0 until nf).sortBy(f => Rng.mix(seed, nodeSeed, f.toLong)).take(k).toArray
        }

      var bestGain = 0.0; var bestF = -1; var bestT = 0.0
      feats.foreach { f =>
        val order = idx.sortBy(i => xs(i)(f))
        var lg = 0.0; var lh = 0.0
        var k = 0
        while (k < order.length - 1) {
          val i = order(k)
          lg += g(i); lh += h(i)
          val vHere = xs(i)(f); val vNext = xs(order(k + 1))(f)
          if (vHere < vNext && k + 1 >= minLeaf && order.length - k - 1 >= minLeaf) {
            val gain = 0.5 * (scoreOf(lg, lh) + scoreOf(sg - lg, sh - lh) - parent)
            if (gain > bestGain + 1e-12) { bestGain = gain; bestF = f; bestT = (vHere + vNext) / 2.0 }
          }
          k += 1
        }
      }
      if (bestF < 0) leaf
      else {
        val (li, ri) = idx.partition(i => xs(i)(bestF) <= bestT)
        Split(bestF, bestT, grow(li, depth + 1, nodeSeed * 2 + 1), grow(ri, depth + 1, nodeSeed * 2 + 2))
      }
    }

    grow(xs.indices.toArray, 0, 1L)
  }
}
