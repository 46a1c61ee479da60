package repro.util

import org.apache.spark.sql.catalyst.plans.logical.Aggregate
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.SparkSpec

class StageSpec extends SparkSpec {
  import spark.implicits._

  test("materialise keeps the rows and schema and reads them over a leaf plan") {
    val grouped = (1 to 200).toDF("x").groupBy((col("x") % 7).as("k")).agg(sum("x").as("s"))
    val leaf = Stage.materialise(grouped)
    val plan = leaf.queryExecution.analyzed
    assert(plan.collectLeaves().size === 1)
    assert(plan.find(_.isInstanceOf[Aggregate]).isEmpty, plan.treeString)
    assert(leaf.schema === grouped.schema)
    assert(leaf.collect().toSet === grouped.collect().toSet)
    assert(grouped.storageLevel !== StorageLevel.NONE, "the rows are cached")
    grouped.unpersist()
  }
}
