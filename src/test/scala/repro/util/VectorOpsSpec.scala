package repro.util

import org.scalacheck.Gen
import repro.PropChecks
import repro.SparkSpec

class VectorOpsSpec extends SparkSpec with PropChecks {

  private val vecGen: Gen[Array[Double]] =
    Gen.choose(1, 8).flatMap(n => Gen.listOfN(n, Gen.choose(-5.0, 5.0)).map(_.toArray))

  test("dot of orthogonal vectors is zero") {
    assert(VectorOps.dot(Array(1.0, 0.0), Array(0.0, 1.0)) === 0.0)
  }

  test("dot rejects dimension mismatch") {
    intercept[IllegalArgumentException] {
      VectorOps.dot(Array(1.0), Array(1.0, 2.0))
    }
  }

  test("cosine of identical vectors is 1") {
    forAll(vecGen) { v =>
      whenever(VectorOps.norm(v) > 1e-9) {
        assert(math.abs(VectorOps.cosine(v, v) - 1.0) < 1e-9)
      }
    }
  }

  test("cosine of opposite vectors is -1") {
    val v = Array(1.0, 2.0, 3.0)
    assert(math.abs(VectorOps.cosine(v, v.map(-_)) + 1.0) < 1e-9)
  }

  test("cosine with a zero vector is 0 (not NaN)") {
    assert(VectorOps.cosine(Array(0.0, 0.0), Array(1.0, 2.0)) === 0.0)
  }

  test("cosine is bounded in [-1, 1]") {
    forAll(vecGen, vecGen) { (a, b) =>
      whenever(a.length == b.length) {
        val c = VectorOps.cosine(a, b)
        assert(c >= -1.0 - 1e-9 && c <= 1.0 + 1e-9)
      }
    }
  }

  test("mean of a single vector is itself") {
    val v = Array(1.0, -2.0, 0.5)
    assert(VectorOps.mean(Seq(v)).sameElements(v))
  }

  test("mean rejects empty input") {
    intercept[IllegalArgumentException] { VectorOps.mean(Seq.empty) }
  }

  test("mean averages componentwise") {
    val m = VectorOps.mean(Seq(Array(0.0, 2.0), Array(2.0, 4.0)))
    assert(m.toSeq === Seq(1.0, 3.0))
  }

  test("scale multiplies componentwise") {
    assert(VectorOps.scale(Array(1.0, -2.0), 3.0).toSeq === Seq(3.0, -6.0))
  }
}
