package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** η-Stable Collaborative Relation (SCR) mining — Stage I, Step I of IUAD.
  *
  * An η-SCR is a name pair co-occurring in at least η co-author lists
  * (Definition 2), i.e. a frequent 2-itemset with support threshold η over
  * the transactions {co-author list of p | p ∈ D}. The paper mines these with
  * FP-growth; for 2-itemsets FP-growth degenerates to exact pair counting,
  * which we express directly in the DataFrame API (a self-join on pid with a
  * canonical name ordering). `ScrSpec` asserts equivalence against
  * `spark.ml.fpm.FPGrowth` and against the DuckDB oracle.
  */
object Scr {

  /** Canonicalised co-occurrence counts for every name pair.
    *
    * @param authorships (pid, name, ...) one row per (paper, name) occurrence
    * @return (a, b, cnt) with a < b lexicographically
    *
    * A name can appear at most once per paper in well-formed input; duplicate
    * occurrences (two same-name authors on one paper) are collapsed first so
    * a pair is counted once per paper, matching itemset semantics.
    */
  def pairCounts(authorships: DataFrame): DataFrame = {
    val occ = authorships.select("pid", "name").distinct()
    val l = occ.as("l")
    val r = occ.as("r")
    l.join(r, col("l.pid") === col("r.pid") && col("l.name") < col("r.name"))
      .select(col("l.name").as("a"), col("r.name").as("b"))
      .groupBy("a", "b")
      .agg(count(lit(1)).as("cnt"))
  }

  /** All η-SCRs: (a, b, cnt) with a < b and cnt >= eta. */
  def mine(authorships: DataFrame, eta: Int): DataFrame = {
    require(eta >= 1, s"support threshold must be >= 1, got $eta")
    pairCounts(authorships).where(col("cnt") >= eta)
  }
}
