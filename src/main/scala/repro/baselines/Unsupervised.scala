package repro.baselines

import repro.core.Model.PaperRec
import Baselines.NameClusterer

/** The four unsupervised comparison methods (§VI-A.3(i)), each reimplemented
  * as a top-down per-name (ego-network) clusterer — faithfully keeping the
  * structural weakness the paper exploits: all same-name co-authors collapse
  * to one label inside the ego view.
  */
object Unsupervised {

  /** ANON (Zhang & Al Hasan 2017): paper embedding + hierarchical
    * agglomerative clustering. Embedding emphasises the co-author view.
    */
  final case class Anon(threshold: Double = 0.35) extends NameClusterer {
    val id = "ANON"
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int] = {
      if (papers.isEmpty) return Array.empty
      val embs = papers.map(PaperEmbedding.embed(_, wCo = 1.0, wTitle = 0.4, wVenue = 0.3)).toArray
      Hac.cluster(PaperEmbedding.simMatrix(embs), threshold, Hac.Average)
    }
  }

  /** NetE (Xu et al. 2018): multi-relation network embedding + density
    * clustering (HDBSCAN in the paper; DBSCAN with the k-dist heuristic here,
    * DESIGN.md §5.5) — noise points stay singletons.
    */
  final case class NetE(minPts: Int = 2, epsScale: Double = 1.05) extends NameClusterer {
    val id = "NetE"
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int] = {
      if (papers.isEmpty) return Array.empty
      val raw = papers.map(PaperEmbedding.embed(_, wCo = 0.8, wTitle = 0.6, wVenue = 0.5)).toArray
      val embs = PaperEmbedding.smooth(papers, raw)
      val sim = PaperEmbedding.simMatrix(embs)
      val dist = sim.map(_.map(s => 1.0 - s))
      val eps = math.min(0.95, Dbscan.kDistEps(dist, minPts) * epsScale)
      Dbscan.cluster(dist, eps, minPts)
    }
  }

  /** Aminer (Zhang et al. 2018): global + local embeddings, HAC grouping.
    * Conservative threshold reproduces its high-precision/low-recall profile.
    */
  final case class AminerB(threshold: Double = 0.6) extends NameClusterer {
    val id = "Aminer"
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int] = {
      if (papers.isEmpty) return Array.empty
      val global = papers.map(PaperEmbedding.embed(_, wCo = 0.5, wTitle = 1.0, wVenue = 0.7)).toArray
      val local = PaperEmbedding.smooth(papers, global, keep = 0.5)
      Hac.cluster(PaperEmbedding.simMatrix(local), threshold, Hac.Complete)
    }
  }

  /** GHOST (Fan et al. 2011): path-based similarity on the paper/co-author
    * bipartite graph + Affinity Propagation. Papers with no connecting path
    * keep similarity 0, which reproduces GHOST's drastic recall collapse.
    */
  final case class Ghost(fourHopWeight: Double = 0.25) extends NameClusterer {
    val id = "GHOST"
    def clusterName(papers: IndexedSeq[PaperRec]): Array[Int] = {
      val n = papers.length
      if (n == 0) return Array.empty
      val coSets = papers.map(_.coNames.toSet)
      // Co-author co-occurrence counts over this ego-network (for 4-hop paths
      // paper–coauthor–paper–coauthor–paper).
      val coPairCount = scala.collection.mutable.HashMap.empty[(String, String), Int]
      coSets.foreach { cs =>
        val s = cs.toSeq.sorted
        for (i <- s.indices; j <- (i + 1) until s.size)
          coPairCount.updateWith((s(i), s(j)))(c => Some(c.getOrElse(0) + 1))
      }
      def sim(i: Int, j: Int): Double = {
        val twoHop = coSets(i).intersect(coSets(j)).size.toDouble
        var fourHop = 0.0
        for (a <- coSets(i); b <- coSets(j) if a != b) {
          val key = if (a < b) (a, b) else (b, a)
          fourHop += coPairCount.getOrElse(key, 0).toDouble
        }
        twoHop + fourHopWeight * math.log1p(fourHop)
      }
      val s = Array.tabulate(n, n)((i, j) => if (i == j) 0.0 else sim(i, j))
      val mx = s.flatten.max
      val norm = if (mx > 0) s.map(_.map(_ / mx)) else s
      AffinityPropagation.cluster(norm)
    }
  }
}
