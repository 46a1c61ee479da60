package repro.core

import repro.SparkSpec

class WlKernelSpec extends SparkSpec {

  private val emptyAdj = Map.empty[String, Array[String]]

  /** The name of every vid these tests use. */
  private val names = Map(
    "a#p1" -> "a", "a#p2" -> "a", "b#p1" -> "b",
    "a#c0" -> "a", "a#c1" -> "a", "b#c0" -> "b", "b#c1" -> "b", "c#c0" -> "c", "d#c0" -> "d", "z#c0" -> "z",
  )

  private def features(vid: String, adj: Map[String, Array[String]], h: Int): Map[String, Int] =
    WlKernel.features(vid, names(vid), adj, names, h)

  test("isolated vertex has one label per iteration") {
    val f = features("a#p1", emptyAdj, 2)
    assert(f.values.sum === 3) // iterations 0, 1, 2
    assert(f.keys.exists(_.contains("a")))
  }

  test("two isolated vertices of the same name have identical features") {
    val f1 = features("a#p1", emptyAdj, 2)
    val f2 = features("a#p2", emptyAdj, 2)
    assert(f1 === f2)
    assert(WlKernel.normalized(f1, f2) === 1.0)
  }

  test("isolated vertices of different names share no refined labels") {
    val f1 = features("a#p1", emptyAdj, 2)
    val f2 = features("b#p1", emptyAdj, 2)
    assert(WlKernel.kernel(f1, f2) === 0.0)
  }

  test("h = 0 uses only initial labels") {
    val adj = Map(
      "a#c0" -> Array("b#c0"),
      "b#c0" -> Array("a#c0"),
    )
    val f = features("a#c0", adj, 0)
    assert(f === Map("0|a" -> 1, "0|b" -> 1))
  }

  test("negative h is rejected") {
    intercept[IllegalArgumentException] {
      features("a#c0", emptyAdj, -1)
    }
  }

  test("same-name vertices with same-name neighbourhoods look identical") {
    // Two 'a' instances, each collaborating with a (different) 'b' instance.
    val adj = Map(
      "a#c0" -> Array("b#c0"), "b#c0" -> Array("a#c0"),
      "a#c1" -> Array("b#c1"), "b#c1" -> Array("a#c1"),
    )
    val f0 = features("a#c0", adj, 2)
    val f1 = features("a#c1", adj, 2)
    assert(math.abs(WlKernel.normalized(f0, f1) - 1.0) < 1e-12)
  }

  test("different neighbourhood names lower the similarity") {
    val adj = Map(
      "a#c0" -> Array("b#c0"), "b#c0" -> Array("a#c0"),
      "a#c1" -> Array("z#c0"), "z#c0" -> Array("a#c1"),
    )
    val same = WlKernel.normalized(
      features("a#c0", adj, 2),
      features("a#c0", adj, 2))
    val diff = WlKernel.normalized(
      features("a#c0", adj, 2),
      features("a#c1", adj, 2))
    assert(same === 1.0)
    assert(diff < same)
    assert(diff > 0.0) // both still contain label 'a'
  }

  test("kernel is symmetric") {
    val adj = Map(
      "a#c0" -> Array("b#c0", "c#c0"),
      "b#c0" -> Array("a#c0"),
      "c#c0" -> Array("a#c0"),
      "d#c0" -> Array.empty[String],
    )
    val f1 = features("a#c0", adj, 2)
    val f2 = features("d#c0", adj, 2)
    assert(WlKernel.kernel(f1, f2) === WlKernel.kernel(f2, f1))
  }

  test("normalized kernel is in [0, 1]") {
    val adj = Map(
      "a#c0" -> Array("b#c0", "c#c0"),
      "b#c0" -> Array("a#c0", "c#c0"),
      "c#c0" -> Array("a#c0", "b#c0"),
      "a#c1" -> Array("b#c1"),
      "b#c1" -> Array("a#c1"),
    )
    for (u <- adj.keys; v <- adj.keys) {
      val n = WlKernel.normalized(
        features(u, adj, 2),
        features(v, adj, 2))
      assert(n >= 0.0 && n <= 1.0 + 1e-12, s"$u,$v -> $n")
    }
  }

  test("labels are the given names, never read from the vids") {
    val adj = Map("x#c0" -> Array("y#c0"), "y#c0" -> Array("x#c0"))
    val f = WlKernel.features("x#c0", "a#b", adj, Map("y#c0" -> "c"), 0)
    assert(f === Map("0|a#b" -> 1, "0|c" -> 1))
  }

  test("normalized handles empty feature maps") {
    assert(WlKernel.normalized(Map.empty, Map.empty) === 0.0)
  }
}
