package repro.baselines

import repro.SparkSpec
import repro.core.Model.PaperRec
import repro.util.VectorOps

class PaperEmbeddingSpec extends SparkSpec {

  private val p1 = PaperRec(1L, Seq("alice", "bob"), Seq("t0_w1", "t0_w2"), "v0", 2000)
  private val p2 = PaperRec(2L, Seq("alice", "bob"), Seq("t0_w3"), "v0", 2001)
  private val p3 = PaperRec(3L, Seq("zed", "quux"), Seq("t7_w1"), "v9", 2005)

  test("embeddings are unit vectors") {
    for (p <- Seq(p1, p2, p3)) {
      val e = PaperEmbedding.embed(p, 1.0, 0.5, 0.3)
      assert(math.abs(VectorOps.norm(e) - 1.0) < 1e-9)
    }
  }

  test("shared co-authors and venue give higher similarity") {
    val e1 = PaperEmbedding.embed(p1, 1.0, 0.5, 0.3)
    val e2 = PaperEmbedding.embed(p2, 1.0, 0.5, 0.3)
    val e3 = PaperEmbedding.embed(p3, 1.0, 0.5, 0.3)
    assert(VectorOps.cosine(e1, e2) > VectorOps.cosine(e1, e3))
  }

  test("view weights change the embedding") {
    val co = PaperEmbedding.embed(p1, 1.0, 0.0, 0.0)
    val ti = PaperEmbedding.embed(p1, 0.0, 1.0, 0.0)
    assert(VectorOps.cosine(co, ti) < 0.99)
  }

  test("embedding is deterministic") {
    val a = PaperEmbedding.embed(p1, 1.0, 0.5, 0.3)
    val b = PaperEmbedding.embed(p1, 1.0, 0.5, 0.3)
    assert(a.toSeq === b.toSeq)
  }

  test("smoothing pulls co-author-linked papers together") {
    val papers = IndexedSeq(p1, p2, p3)
    val raw = papers.map(PaperEmbedding.embed(_, 0.2, 1.0, 0.3)).toArray
    val before = VectorOps.cosine(raw(0), raw(1))
    val smoothed = PaperEmbedding.smooth(papers, raw)
    val after = VectorOps.cosine(smoothed(0), smoothed(1))
    assert(after >= before - 1e-9, s"smoothing should not push linked papers apart: $before -> $after")
  }

  test("smoothing leaves isolated papers nearly unchanged in direction") {
    val papers = IndexedSeq(p1, p3) // no shared co-authors
    val raw = papers.map(PaperEmbedding.embed(_, 1.0, 0.5, 0.3)).toArray
    val smoothed = PaperEmbedding.smooth(papers, raw)
    assert(VectorOps.cosine(raw(1), smoothed(1)) > 0.999)
  }

  test("simMatrix is symmetric with unit diagonal") {
    val embs = Array(p1, p2, p3).map(PaperEmbedding.embed(_, 1.0, 0.5, 0.3))
    val m = PaperEmbedding.simMatrix(embs)
    for (i <- m.indices; j <- m.indices) {
      assert(math.abs(m(i)(j) - m(j)(i)) < 1e-12)
    }
    m.indices.foreach(i => assert(m(i)(i) === 1.0))
  }
}
