package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions.{concat, lit, pmod, when}

/** Shared row types of the IUAD pipeline. */
object Model {

  /** Every vertex id, spelled only here. No code reads a name back from an
    * id (WL labels come from names); the one read-back is a half's [[parent]].
    */
  object Vid {
    /** The SCN vertex of the k-th SCR component of `name`. */
    def instance(name: String, comp: Int): String = s"$name#c$comp"
    /** One isolated vertex per (name, paper) occurrence (DESIGN.md §5.11). */
    def singleton(name: String, pid: Long): String = s"$name#p$pid"
    /** A new paper's occurrence, judged by [[Incremental.disambiguate]]. */
    def newOccurrence(name: String, pid: Long): String = s"$name#new$pid"
    /** The half of split vertex `vid` that holds paper `pid` (§V-F.2). */
    def half(vid: Column, pid: Column, seed: Long): Column =
      concat(vid, when(pmod(pid + lit(seed), lit(2)) === 0, lit("/s0")).otherwise(lit("/s1")))
    /** The split vertex of a [[half]]. */
    def parent(half: String): String = half.dropRight(3)
  }

  /** For name `name`, SCR partner `nbr` lies in neighbour-component `comp`. */
  final case class NeighborComp(name: String, nbr: String, comp: Int)

  /** The stable collaboration network (Stage I output).
    *
    * @param vertices     (vid, name)
    * @param edges        (src, dst) instance-level SCR edges: `graph.edges`
    * @param vertexPapers (vid, name, pid)
    * @param graph        the instance level, built on the driver
    */
  final case class Scn(
      vertices: DataFrame,
      edges: DataFrame,
      vertexPapers: DataFrame,
      graph: ScnBuilder.Graph,
  )

  /** Everything the six similarity functions need about one vertex: an SCN
    * vertex, a split half or a new occurrence, all built by [[Profiles.of]].
    *
    * @param wordYears one (keyword, year) entry per paper containing it
    * @param cliques   co-author name pairs `"yz"` co-occurring with the
    *                  vertex in one of its papers (triangle shortcut of γ2)
    * @param wl        WL subgraph-kernel feature counts of the ego subgraph,
    *                  each vertex labelled by its name
    */
  final case class VertexProfile(
      vid: String,
      name: String,
      pids: Seq[Long],
      wordYears: Seq[(String, Int)],
      venues: Seq[String],
      cliques: Seq[String],
      wl: Map[String, Int],
  ) {
    def nPapers: Int = pids.size
  }

  /** Candidate same-name vertex pair with its 6-dim similarity vector. */
  final case class PairGamma(name: String, vi: String, vj: String, g: Array[Double])

  /** Scored candidate pair (log posterior-odds of being matched). */
  final case class ScoredPair(name: String, vi: String, vj: String, score: Double)

  /** Pairwise micro metrics over same-name paper pairs (§VI-A.2). */
  final case class Metrics(tp: Long, fp: Long, fn: Long, tn: Long) {
    def accuracy: Double = safe(tp + tn, tp + fp + fn + tn)
    def precision: Double = safe(tp, tp + fp)
    def recall: Double = safe(tp, tp + fn)
    def f1: Double = {
      val p = precision; val r = recall
      if (p + r == 0.0) 0.0 else 2 * p * r / (p + r)
    }
    def +(o: Metrics): Metrics = Metrics(tp + o.tp, fp + o.fp, fn + o.fn, tn + o.tn)
    private def safe(num: Long, den: Long): Double = if (den == 0L) 0.0 else num.toDouble / den
    override def toString: String =
      f"Metrics(A=$accuracy%.4f P=$precision%.4f R=$recall%.4f F=$f1%.4f tp=$tp fp=$fp fn=$fn tn=$tn)"
  }
}
