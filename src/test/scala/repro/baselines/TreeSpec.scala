package repro.baselines

import org.scalacheck.Gen
import repro.{PropChecks, SparkSpec}
import repro.util.Rng

class TreeSpec extends SparkSpec with PropChecks {

  /** The weighted least-squares tree on `y`: the Newton tree with g = −w·y, h = w. */
  private def leastSquares(
      xs: Array[Array[Double]],
      y: Array[Double],
      w: Array[Double],
      maxDepth: Int,
      featureFrac: Double = 1.0,
      seed: Long = 0L,
  ): Tree.Node =
    Tree.fit(xs, y.indices.map(i => -w(i) * y(i)).toArray, w, maxDepth, featureFrac = featureFrac, seed = seed)

  test("constant target yields a single leaf") {
    val xs = Array(Array(0.0), Array(1.0), Array(2.0))
    val y = Array(5.0, 5.0, 5.0)
    val t = leastSquares(xs, y, Array.fill(3)(1.0), maxDepth = 3)
    assert(t.isInstanceOf[Tree.Leaf])
    assert(t.predict(Array(99.0)) === 5.0)
  }

  test("a single split separates a step function") {
    val xs = (0 until 20).map(i => Array(i.toDouble)).toArray
    val y = xs.map(x => if (x(0) < 10) 0.0 else 1.0)
    val t = leastSquares(xs, y, Array.fill(20)(1.0), maxDepth = 1)
    assert(t.predict(Array(3.0)) === 0.0)
    assert(t.predict(Array(15.0)) === 1.0)
  }

  test("depth limit is honoured") {
    val xs = (0 until 16).map(i => Array(i.toDouble)).toArray
    val y = xs.map(x => x(0) % 4) // needs depth > 1
    def depth(n: Tree.Node): Int = n match {
      case Tree.Leaf(_)             => 0
      case Tree.Split(_, _, l, r)   => 1 + math.max(depth(l), depth(r))
    }
    val t = leastSquares(xs, y, Array.fill(16)(1.0), maxDepth = 2)
    assert(depth(t) <= 2)
  }

  test("weights steer the split (heavily weighted rows dominate)") {
    val xs = Array(Array(0.0), Array(1.0), Array(2.0), Array(3.0))
    val y = Array(0.0, 0.0, 1.0, 1.0)
    // Weight row 0 overwhelmingly: leaf means shift toward its value.
    val w = Array(100.0, 1.0, 1.0, 1.0)
    val t = leastSquares(xs, y, w, maxDepth = 0)
    assert(t.predict(Array(0.0)) < 0.1)
  }

  test("two-feature interaction is learned at depth 2 (AND)") {
    // AND needs both features: the first split (on either feature) has
    // positive gain, the second isolates the (1,1) corner. (XOR, by contrast,
    // has zero first-split gain and is unlearnable by greedy CART.)
    val xs = (for (a <- 0 to 1; b <- 0 to 1; _ <- 0 until 5) yield
      Array(a.toDouble, b.toDouble)).toArray
    val y = xs.map(x => if (x(0) > 0.5 && x(1) > 0.5) 1.0 else 0.0)
    val t = leastSquares(xs, y, Array.fill(xs.length)(1.0), maxDepth = 2)
    assert(t.predict(Array(1.0, 1.0)) > 0.9)
    assert(t.predict(Array(0.0, 1.0)) < 0.1)
    assert(t.predict(Array(1.0, 0.0)) < 0.1)
  }

  test("fit: leaf value is -G/(H+lambda)") {
    val xs = Array(Array(0.0), Array(0.0))
    val g = Array(1.0, 1.0)
    val h = Array(1.0, 1.0)
    val t = Tree.fit(xs, g, h, maxDepth = 2, lambda = 1.0)
    // single leaf (no split possible): -2/(2+1)
    assert(math.abs(t.predict(Array(0.0)) - (-2.0 / 3.0)) < 1e-12)
  }

  test("fit splits when the Newton gain is positive") {
    val xs = (0 until 10).map(i => Array(i.toDouble)).toArray
    val g = xs.map(x => if (x(0) < 5) 1.0 else -1.0)
    val h = Array.fill(10)(1.0)
    val t = Tree.fit(xs, g, h, maxDepth = 2, lambda = 0.1)
    assert(t.predict(Array(0.0)) < 0.0) // pushes against positive gradient
    assert(t.predict(Array(9.0)) > 0.0)
  }

  test("feature subsampling is deterministic in the seed") {
    val xs = (0 until 30).map(i =>
      Array(Rng.uniform(1L, i.toLong), Rng.uniform(2L, i.toLong), Rng.uniform(3L, i.toLong))).toArray
    val y = xs.map(x => x(0) + 2 * x(1))
    val w = Array.fill(30)(1.0)
    val t1 = leastSquares(xs, y, w, 3, featureFrac = 0.5, seed = 5L)
    val t2 = leastSquares(xs, y, w, 3, featureFrac = 0.5, seed = 5L)
    val probe = Array(0.3, 0.6, 0.9)
    assert(t1.predict(probe) === t2.predict(probe))
  }

  test("invalid input is rejected") {
    intercept[IllegalArgumentException] {
      Tree.fit(Array.empty, Array.empty, Array.empty, 1)
    }
    intercept[IllegalArgumentException] {
      Tree.fit(Array(Array(1.0)), Array(1.0), Array(1.0, 2.0), 1)
    }
  }

  /** Weighted mean of `y` over `rows`, and the weighted SSE around it. */
  private def meanAndSse(rows: Seq[Int], y: Array[Double], w: Array[Double]): (Double, Double) = {
    val sw = rows.map(w(_)).sum
    val mean = rows.map(i => w(i) * y(i)).sum / sw
    (mean, rows.map(i => w(i) * (y(i) - mean) * (y(i) - mean)).sum)
  }

  private val weightedGen: Gen[(Array[Array[Double]], Array[Double], Array[Double])] = for {
    n  <- Gen.choose(3, 12)
    nf <- Gen.choose(1, 3)
    xs <- Gen.listOfN(n, Gen.listOfN(nf, Gen.choose(0, 4).map(_.toDouble)))
    y  <- Gen.oneOf(Gen.listOfN(n, Gen.choose(-2.0, 2.0)), Gen.listOfN(n, Gen.choose(0, 1).map(_.toDouble)))
    w  <- Gen.listOfN(n, Gen.choose(0.05, 3.0))
  } yield (xs.map(_.toArray).toArray, y.toArray, w.toArray)

  test("a depth-1 fit with g = -w*y, h = w is the exhaustive weighted least-squares split") {
    forAll(weightedGen, samples = 300) { case (xs, y, w) =>
      val all = xs.indices
      // Every split between two distinct values of a feature, in (feature,
      // threshold) order; the first that lowers the SSE most wins.
      val candidates = for {
        f <- xs(0).indices
        vs = xs.map(_(f)).distinct.sorted
        k <- 0 until vs.length - 1
        t = (vs(k) + vs(k + 1)) / 2.0
        (l, r) = all.partition(xs(_)(f) <= t)
      } yield (f, t, l, r, meanAndSse(all, y, w)._2 - meanAndSse(l, y, w)._2 - meanAndSse(r, y, w)._2)
      val best = candidates.foldLeft(Option.empty[(Int, Double, Seq[Int], Seq[Int], Double)]) {
        case (b, c) => if (c._5 > b.fold(1e-9)(_._5 + 1e-9)) Some(c) else b
      }
      (Tree.fit(xs, all.map(i => -w(i) * y(i)).toArray, w, maxDepth = 1), best) match {
        case (Tree.Leaf(v), None) =>
          assert(math.abs(v - meanAndSse(all, y, w)._1) < 1e-9)
        case (Tree.Split(f, t, Tree.Leaf(lv), Tree.Leaf(rv)), Some((bf, bt, l, r, _))) =>
          assert((f, t) === ((bf, bt)))
          assert(math.abs(lv - meanAndSse(l, y, w)._1) < 1e-9)
          assert(math.abs(rv - meanAndSse(r, y, w)._1) < 1e-9)
        case (tree, ref) => fail(s"fit gave $tree, the exhaustive search $ref")
      }
    }
  }
}
