package repro.dblp

import repro.util.{Rng, VectorOps}

/** Deterministic topic-structured word vectors.
  *
  * Substitute for the pretrained Word2Vec/GloVe embeddings the paper feeds
  * into γ3 (Eq. 6): no pretrained models are available offline, so we exploit
  * the fact that [[DblpSynth]] vocabulary is topic-prefixed and synthesise
  * vectors where words of the same research community are mutually close —
  * exactly the geometric property γ3 needs. Pure function of the word string;
  * no model file, no state.
  */
object WordVectors {

  val Dim = 16

  /** Unit direction of a community topic, keyed by community id. */
  def topicDirection(comm: Int, dim: Int = Dim): Array[Double] = {
    val v = Array.tabulate(dim)(i => Rng.gaussian(0x7091CL, comm.toLong, i.toLong))
    val n = VectorOps.norm(v)
    if (n == 0.0) Array.tabulate(dim)(i => if (i == 0) 1.0 else 0.0) else v.map(_ / n)
  }

  /** Unit-norm per-word noise direction (normalised so the topic/noise mix
    * ratio below is meaningful at any dimension).
    */
  private def noise(word: String, dim: Int): Array[Double] = {
    val h = word.hashCode.toLong
    val v = Array.tabulate(dim)(i => Rng.gaussian(0x20153L, h, i.toLong))
    val n = VectorOps.norm(v)
    if (n == 0.0) Array.tabulate(dim)(i => if (i == 0) 1.0 else 0.0) else v.map(_ / n)
  }

  /** Vector for one keyword. Topic words `t{c}_w*` and signature words
    * `sig_t{team}_*` align with their community direction; global stop-topic
    * words `g_w*` are isotropic noise.
    */
  def vector(word: String, dim: Int = Dim): Array[Double] = {
    val comm: Option[Int] = word match {
      case w if w.startsWith("st") && w.contains("_w") =>
        // Team subtopic words: direction keyed per team — the fine-grained
        // fingerprint that separates same-community namesakes in γ3.
        w.drop(2).takeWhile(_.isDigit).toIntOption.map(_ + 500000)
      case w if w.startsWith("t") && w.contains("_w") =>
        w.drop(1).takeWhile(_.isDigit).toIntOption
      case w if w.startsWith("sig_t") =>
        // Signature words belong to a team; align with the team's community
        // under the default interleaving (team % nComms is unknown here, so
        // key the direction by the team id — still stable per team).
        w.drop(5).takeWhile(_.isDigit).toIntOption.map(_ + 100000)
      case _ => None
    }
    val raw = comm match {
      case Some(c) =>
        val dir = topicDirection(c, dim)
        val nz  = noise(word, dim)
        Array.tabulate(dim)(i => 0.85 * dir(i) + 0.45 * nz(i))
      case None => noise(word, dim)
    }
    val n = VectorOps.norm(raw)
    if (n == 0.0) raw else raw.map(_ / n)
  }

  /** Mean vector of the distinct `words`, summed in the order they first
    * occur (γ3 and the supervised title cosine); None without words.
    */
  def center(words: Seq[String]): Option[Array[Double]] = {
    val ws = words.distinct
    if (ws.isEmpty) None else Some(VectorOps.mean(ws.map(vector(_))))
  }
}
