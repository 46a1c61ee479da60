package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import Model.Metrics

/** Pairwise micro evaluation (§VI-A.2): over all same-name paper pairs,
  * TP/FP/FN/TN compare "predicted same cluster" against "truly same author".
  * Counts are summed across all names before the ratios (micro averaging).
  */
object Evaluation {

  /** Names with ≥ 2 distinct ground-truth authors — the testing subset
    * (stand-in for the paper's DBLP∩DAminer 50-name set).
    */
  def ambiguousNames(truth: DataFrame): DataFrame =
    truth
      .groupBy("name")
      .agg(countDistinct("authorId").as("nAuthors"))
      .where(col("nAuthors") >= 2)
      .select("name")

  /** Micro counts for a predicted assignment, from one aggregate: with n
    * occurrences per (name, cluster, author), each count is a sum of C(n, 2)
    * over a coarser grouping — (name, cluster, author) gives TP,
    * (name, cluster) the predicted-same pairs, (name, author) the truly-same
    * pairs and name all pairs.
    *
    * Precondition: (pid, name) is unique in `assignment` and in `truth`, as
    * `DblpSynth.authorships` and a one-cluster-per-occurrence assignment
    * guarantee (a duplicated key would count a paper paired with itself),
    * and no cluster or author is null.
    *
    * @param assignment (pid, name, cluster)
    * @param truth      (pid, name, authorId)
    * @param evalNames  optional (name) restriction (testing subset)
    */
  def pairwiseMicro(
      spark: SparkSession,
      assignment: DataFrame,
      truth: DataFrame,
      evalNames: Option[DataFrame] = None,
  ): Metrics = {
    val keep = evalNames.map(_.select("name").collect().map(_.getString(0)).toSet)
    // Counted through the RDD API, where a shuffle is not a job of its own.
    val counts = assignment
      .join(truth.select("pid", "name", "authorId"), Seq("pid", "name"))
      .select("name", "cluster", "authorId")
      .rdd
      .map(r => (r.getString(0), r.get(1), r.get(2)))
      .countByValue()
      .filter { case ((name, _, _), _) => keep.forall(_.contains(name)) }
    def pairs[K](key: ((String, Any, Any)) => K): Long =
      counts.groupMapReduce(c => key(c._1))(_._2)(_ + _).valuesIterator.map(n => n * (n - 1) / 2).sum
    val tp = pairs(c => (c._1, c._2, c._3))
    val predSame = pairs(c => (c._1, c._2))
    val trueSame = pairs(c => (c._1, c._3))
    val all = pairs(_._1)
    Metrics(tp, predSame - tp, trueSame - tp, all - predSame - trueSame + tp)
  }
}
