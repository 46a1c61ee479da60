package repro.util

import org.apache.spark.sql.Dataset

/** Pipeline stage outputs computed once and read back over a leaf plan.
  *
  * A cached Dataset still carries the full plan of its parents, so when cached
  * stage outputs feed each other and several self-joins, the plan Spark
  * analyses and renders for every later query grows exponentially with the
  * pipeline's depth. Reading the cache through an RDD cuts the plan: later
  * queries plan over one leaf per stage. See DESIGN.md §3.
  */
object Stage {

  /** Caches `ds` and returns its rows over a leaf plan that reads the cache.
    * The rows are computed on first use and stay cached until `ds` is
    * unpersisted or the session's cache is cleared (unpersisting the leaf
    * does nothing); lost cache blocks are recomputed from the RDD lineage.
    * The leaf keeps the cached plan's partitions, which adaptive execution
    * does not coalesce; row sampling (`Dataset.sample`) draws per
    * partition, so a sample of the leaf equals a sample of the cache.
    */
  def materialise[T](ds: Dataset[T]): Dataset[T] =
    ds.sparkSession.createDataset(ds.cache().rdd)(ds.encoder)
}
