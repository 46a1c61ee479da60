package repro.baselines

import repro.core.Model.PaperRec
import repro.dblp.WordVectors
import repro.util.{Rng, VectorOps}

/** Feature-hashed paper embeddings — the offline stand-in for the neural
  * paper embeddings of ANON/NetE/Aminer (DESIGN.md §5.4).
  *
  * Three views are hashed into one space with per-view weights: co-author
  * names (the signal an ego-network blurs across same-name authors), title
  * keywords (through the topic-structured [[WordVectors]]) and the venue.
  * An optional smoothing step averages each paper with its shared-co-author
  * neighbours — the "network" flavour of NetE/Aminer.
  */
object PaperEmbedding {

  val Dim = 48

  private def hashInto(acc: Array[Double], token: String, weight: Double): Unit = {
    val h = Rng.mix(token.hashCode.toLong, 0x9E17L)
    val idx = ((h % Dim) + Dim) % Dim
    val sign = if (((h >>> 17) & 1L) == 0L) 1.0 else -1.0
    acc(idx.toInt) += sign * weight
  }

  /** Embed one paper. Weights select the view mix of each baseline. */
  def embed(p: PaperRec, wCo: Double, wTitle: Double, wVenue: Double): Array[Double] = {
    val acc = new Array[Double](Dim)
    p.coNames.distinct.foreach(c => hashInto(acc, s"c:$c", wCo))
    if (wTitle > 0.0) {
      p.title.distinct.foreach { w =>
        val v = WordVectors.vector(w)
        var i = 0
        while (i < math.min(Dim, v.length)) { acc(i) += wTitle * v(i); i += 1 }
        hashInto(acc, s"t:$w", wTitle * 0.5)
      }
    }
    if (wVenue > 0.0) hashInto(acc, s"v:${p.venue}", wVenue)
    val n = VectorOps.norm(acc)
    if (n == 0.0) acc else acc.map(_ / n)
  }

  /** One smoothing round: average each paper with neighbours sharing a
    * co-author name, then renormalise.
    */
  def smooth(papers: IndexedSeq[PaperRec], embs: Array[Array[Double]], keep: Double = 0.6): Array[Array[Double]] = {
    val n = papers.length
    val byCo = scala.collection.mutable.HashMap.empty[String, scala.collection.mutable.ArrayBuffer[Int]]
    papers.zipWithIndex.foreach { case (p, i) =>
      p.coNames.distinct.foreach(c => byCo.getOrElseUpdate(c, scala.collection.mutable.ArrayBuffer.empty) += i)
    }
    val out = Array.tabulate(n) { i =>
      val nbrs = papers(i).coNames.distinct.flatMap(c => byCo(c)).filter(_ != i).distinct
      val acc = embs(i).map(_ * keep)
      if (nbrs.nonEmpty) {
        val m = VectorOps.mean(nbrs.map(embs(_)))
        var d = 0
        while (d < acc.length) { acc(d) += (1.0 - keep) * m(d); d += 1 }
      }
      val nn = VectorOps.norm(acc)
      if (nn == 0.0) acc else acc.map(_ / nn)
    }
    out
  }

  /** Pairwise cosine-similarity matrix of embeddings. */
  def simMatrix(embs: Array[Array[Double]]): Array[Array[Double]] = {
    val n = embs.length
    Array.tabulate(n, n)((i, j) => if (i == j) 1.0 else VectorOps.cosine(embs(i), embs(j)))
  }
}
