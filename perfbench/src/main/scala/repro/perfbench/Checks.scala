package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.Oracle

/** Output checks. Each returns None when it holds and a message otherwise. */
object Checks {

  /** One row of an assignment: occurrence (pid, name) and its cluster. */
  type Row3 = (Long, String, String)

  /** Collected through the RDD API: a check needs the rows, not a SQL
    * execution, whose plan rendering over the pipeline's lineage costs
    * seconds per call at this scale.
    */
  def rowsOf(assignment: DataFrame): Array[Row3] =
    assignment.select("pid", "name", "cluster").rdd.map(r => (r.getLong(0), r.getString(1), r.getString(2))).collect()

  /** Every distinct (pid, name) occurrence of `occ` has exactly one row in
    * `assignment`, and `assignment` has no other rows. Checked in memory:
    * the assignments are collected anyway for the fingerprint.
    */
  def oneClusterPerOccurrence(assignment: Array[Row3], occ: Set[(Long, String)], what: String): Option[String] = {
    val perOcc = assignment.groupBy(r => (r._1, r._2)).map { case (k, rs) => k -> rs.length }
    val multi = perOcc.count(_._2 != 1)
    val missing = occ.count(o => !perOcc.contains(o))
    val extra = perOcc.keysIterator.count(k => !occ.contains(k))
    if (multi + missing + extra == 0) None
    else Some(s"$what: $multi occurrences with several clusters, $missing without one, $extra unknown")
  }

  /** The evaluated pair count tp+fp+fn+tn must equal the number of
    * same-name paper pairs over the testing names, counted independently by
    * DuckDB over the corpus without the `held` papers.
    */
  def pairTotal(spark: SparkSession, auth: DataFrame, held: DataFrame, evaluated: Long): Option[String] = {
    import spark.implicits._
    val sql =
      """WITH testing AS (SELECT name FROM auth GROUP BY name HAVING count(DISTINCT authorId) >= 2),
        |     t AS (SELECT * FROM auth WHERE name IN (SELECT name FROM testing)
        |           AND pid NOT IN (SELECT pid FROM held))
        |SELECT count(*) AS pairs FROM t x JOIN t y ON x.name = y.name AND x.pid < y.pid""".stripMargin
    try {
      Oracle.assertEquivalent(Seq(evaluated).toDF("pairs"), sql, "auth" -> auth.select("pid", "name", "authorId"), "held" -> held)
      None
    } catch { case e: IllegalArgumentException => Some(s"pair total: ${e.getMessage}") }
  }

  /** Order-independent fingerprint of an assignment as a partition of
    * occurrences: each cluster is labelled by its smallest (pid, name) member,
    * so the value does not depend on how cluster ids are spelled.
    */
  def fingerprint(assignment: Array[Row3]): String = {
    val labels = assignment.groupBy(_._3).map { case (c, rs) => c -> rs.map(r => (r._1, r._2)).min }
    val h = assignment.foldLeft(0L) { case (acc, (pid, name, cluster)) =>
      val (lp, ln) = labels(cluster)
      acc ^ ((pid, name, lp, ln).hashCode.toLong << 32 | (ln, lp, name, pid).hashCode & 0xffffffffL)
    }
    f"${assignment.length}:$h%016x"
  }
}
