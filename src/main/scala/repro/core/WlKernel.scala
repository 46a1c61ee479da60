package repro.core

/** Weisfeiler–Lehman subgraph kernel on the SCN (γ1, Eqs. 3–4).
  *
  * The feature map φ^(h)(v) counts WL labels over v's ego subgraph (v plus
  * its SCN neighbours, edges induced), across refinement iterations 0..h.
  * Initial labels are author *names* — two instances of the same name share
  * the label even though they are distinct vertices, which is exactly what
  * lets the kernel detect "these two same-name vertices sit in look-alike
  * neighbourhoods". Refined labels are compressed with a string hash, as in
  * Shervashidze et al. (2011).
  */
object WlKernel {

  /** WL feature counts for vertex `vid` of name `name`.
    *
    * @param adj   instance-level adjacency (undirected; missing key = isolated)
    * @param names vertex id → initial label (the author name) of every
    *              neighbour in `adj`; `vid` itself is labelled `name`
    * @param h     number of WL refinement iterations (h >= 0)
    */
  def features(
      vid: String,
      name: String,
      adj: Map[String, Array[String]],
      names: Map[String, String],
      h: Int,
  ): Map[String, Int] = {
    require(h >= 0, s"WL iterations must be >= 0, got $h")
    val nbrs = adj.getOrElse(vid, Array.empty[String])
    val ego: Array[String] = (vid +: nbrs).distinct
    val inEgo = ego.toSet
    val egoAdj: Map[String, Array[String]] =
      ego.map(u => u -> adj.getOrElse(u, Array.empty[String]).filter(inEgo.contains)).toMap

    def labelOf(u: String): String = if (u == vid) name else names(u)

    var cur: Map[String, String] = ego.map(u => u -> s"0|${labelOf(u)}").toMap
    val counts = scala.collection.mutable.HashMap.empty[String, Int]
    def record(ls: Iterable[String]): Unit =
      ls.foreach(l => counts.update(l, counts.getOrElse(l, 0) + 1))
    record(cur.values)

    var it = 1
    while (it <= h) {
      val next = ego.map { u =>
        val sig = cur(u) + "(" + egoAdj(u).map(cur).sorted.mkString(",") + ")"
        // Compress to bound feature-string growth (standard WL trick).
        u -> s"$it|${java.lang.Integer.toHexString(scala.util.hashing.MurmurHash3.stringHash(sig))}"
      }.toMap
      record(next.values)
      cur = next
      it += 1
    }
    counts.toMap
  }

  /** Unnormalised kernel: inner product of feature counts. */
  def kernel(f1: Map[String, Int], f2: Map[String, Int]): Double = {
    val (small, big) = if (f1.size <= f2.size) (f1, f2) else (f2, f1)
    small.iterator.map { case (k, c) => c.toDouble * big.getOrElse(k, 0) }.sum
  }

  /** Normalised kernel (Eq. 4); 0 when either self-kernel degenerates. */
  def normalized(f1: Map[String, Int], f2: Map[String, Int]): Double =
    normalized(f1, kernel(f1, f1), f2, kernel(f2, f2))

  /** Eq. 4 with the self-kernels `k11 = kernel(f1, f1)` and
    * `k22 = kernel(f2, f2)` already computed.
    */
  def normalized(f1: Map[String, Int], k11: Double, f2: Map[String, Int], k22: Double): Double =
    if (k11 <= 0.0 || k22 <= 0.0) 0.0 else kernel(f1, f2) / math.sqrt(k11 * k22)
}
