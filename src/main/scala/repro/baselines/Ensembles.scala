package repro.baselines

import repro.util.Rng
import Tree.Node

/** The four supervised pairwise classifiers of §VI-A.3(ii), built on
  * [[Tree]]. All operate on labels in {0, 1} and expose
  * `predictProba(x) ∈ [0,1]`; the decision threshold is 0.5.
  */
object Ensembles {

  trait BinaryClassifier extends Serializable {
    def predictProba(x: Array[Double]): Double
    final def predict(x: Array[Double]): Boolean = predictProba(x) >= 0.5
  }

  private def sigmoid(z: Double): Double = 1.0 / (1.0 + math.exp(-z))

  /** Discrete AdaBoost with depth-1 stumps. */
  final case class AdaBoostModel(stumps: Seq[(Node, Double)]) extends BinaryClassifier {
    def predictProba(x: Array[Double]): Double = {
      val f = stumps.map { case (t, a) => a * (if (t.predict(x) >= 0.5) 1.0 else -1.0) }.sum
      sigmoid(2.0 * f)
    }
  }

  def adaBoost(xs: Array[Array[Double]], y: Array[Int], rounds: Int = 50): AdaBoostModel = {
    val n = xs.length
    val w = Array.fill(n)(1.0 / n)
    val out = scala.collection.mutable.ArrayBuffer.empty[(Node, Double)]
    var r = 0
    while (r < rounds) {
      // the weighted least-squares stump on y: g = −w·y, h = w
      val stump = Tree.fit(xs, Array.tabulate(n)(i => -w(i) * y(i)), w, maxDepth = 1)
      val pred = xs.map(x => stump.predict(x) >= 0.5)
      var eps = 0.0
      var i = 0
      while (i < n) { if (pred(i) != (y(i) == 1)) eps += w(i); i += 1 }
      eps = math.min(math.max(eps, 1e-10), 1.0 - 1e-10)
      if (eps >= 0.5) { r = rounds } // no better than chance — stop
      else {
        val alpha = 0.5 * math.log((1.0 - eps) / eps)
        out += ((stump, alpha))
        var sw = 0.0
        i = 0
        while (i < n) {
          val agree = pred(i) == (y(i) == 1)
          w(i) = w(i) * math.exp(if (agree) -alpha else alpha)
          sw += w(i); i += 1
        }
        i = 0
        while (i < n) { w(i) /= sw; i += 1 }
        r += 1
      }
    }
    if (out.isEmpty) { // degenerate data: constant model at the base rate
      val base = y.sum.toDouble / math.max(1, y.length)
      out += ((Tree.Leaf(base), if (base >= 0.5) 1e-3 else -1e-3))
    }
    AdaBoostModel(out.toSeq)
  }

  /** Boosted trees on the log-odds scale: sigmoid(f0 + Σ lr·tree(x)). Both
    * [[gbdt]] and [[xgbLike]] return one.
    */
  final case class BoostedModel(f0: Double, trees: Seq[Node], lr: Double) extends BinaryClassifier {
    def predictProba(x: Array[Double]): Double =
      sigmoid(f0 + trees.map(t => lr * t.predict(x)).sum)
  }

  /** Newton boosting of the logistic loss from the base-rate log-odds: each
    * round fits a [[Tree.fit]] to g = p − y, with h = p(1 − p) if
    * `secondOrder` and h = 1 otherwise, where p = sigmoid(f(x)).
    */
  private def newtonBoost(
      xs: Array[Array[Double]],
      y: Array[Int],
      rounds: Int,
      lr: Double,
      maxDepth: Int,
      lambda: Double,
      secondOrder: Boolean,
  ): BoostedModel = {
    val n = xs.length
    val base = math.min(math.max(y.sum.toDouble / math.max(1, n), 1e-6), 1.0 - 1e-6)
    val f0 = math.log(base / (1.0 - base))
    val f = Array.fill(n)(f0)
    val trees = Seq.fill(rounds) {
      val p = f.map(sigmoid)
      val h = if (secondOrder) p.map(q => math.max(q * (1.0 - q), 1e-6)) else Array.fill(n)(1.0)
      val t = Tree.fit(xs, Array.tabulate(n)(i => p(i) - y(i)), h, maxDepth, minLeaf = 3, lambda = lambda)
      var i = 0
      while (i < n) { f(i) += lr * t.predict(xs(i)); i += 1 }
      t
    }
    BoostedModel(f0, trees, lr)
  }

  /** Gradient-boosted trees with logistic loss (Friedman): the Newton
    * booster with a unit hessian and no leaf penalty.
    */
  def gbdt(xs: Array[Array[Double]], y: Array[Int], rounds: Int = 60, lr: Double = 0.2, maxDepth: Int = 3): BoostedModel =
    newtonBoost(xs, y, rounds, lr, maxDepth, lambda = 0.0, secondOrder = false)

  /** Random forest of deeper trees on bootstrap rows + column subsamples. */
  final case class RandomForestModel(trees: Seq[Node]) extends BinaryClassifier {
    def predictProba(x: Array[Double]): Double =
      trees.map(t => if (t.predict(x) >= 0.5) 1.0 else 0.0).sum / math.max(1, trees.size)
  }

  def randomForest(
      xs: Array[Array[Double]],
      y: Array[Int],
      nTrees: Int = 60,
      maxDepth: Int = 6,
      seed: Long = 11L,
  ): RandomForestModel = {
    val n = xs.length
    val trees = (0 until nTrees).map { t =>
      val idx = Array.tabulate(n)(i => Rng.uniformInt(n, seed, t.toLong, i.toLong))
      // the least-squares tree on y: g = −y, h = 1
      Tree.fit(idx.map(xs(_)), idx.map(i => -y(i).toDouble), Array.fill(n)(1.0), maxDepth, minLeaf = 2,
        featureFrac = 0.6, seed = Rng.mix(seed, t.toLong))
    }
    RandomForestModel(trees)
  }

  /** XGBoost-style Newton boosting with L2-regularised leaves. */
  def xgbLike(
      xs: Array[Array[Double]],
      y: Array[Int],
      rounds: Int = 60,
      lr: Double = 0.3,
      maxDepth: Int = 4,
      lambda: Double = 1.0,
  ): BoostedModel =
    newtonBoost(xs, y, rounds, lr, maxDepth, lambda, secondOrder = true)
}
