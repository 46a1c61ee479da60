package repro.util

/** Tiny dense-vector helpers shared by similarity functions, embeddings and
  * the supervised baselines. Arrays, not breeze — keeps closures cheap.
  */
object VectorOps {

  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dim mismatch ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def norm(a: Array[Double]): Double = math.sqrt(dot(a, a))

  /** Cosine similarity; 0.0 when either vector is all-zero. */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    val na = norm(a); val nb = norm(b)
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  def addInPlace(acc: Array[Double], x: Array[Double]): Array[Double] = {
    var i = 0
    while (i < acc.length) { acc(i) += x(i); i += 1 }
    acc
  }

  def scale(a: Array[Double], s: Double): Array[Double] = a.map(_ * s)

  /** Mean of a non-empty collection of equal-length vectors. */
  def mean(vs: Iterable[Array[Double]]): Array[Double] = {
    require(vs.nonEmpty, "mean of empty vector set")
    val acc = new Array[Double](vs.head.length)
    vs.foreach(addInPlace(acc, _))
    scale(acc, 1.0 / vs.size)
  }
}
