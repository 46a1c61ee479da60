package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic input data, deterministic in (sf, seed) so the DuckDB oracle
  * sees identical input.
  */
object SynthData {

  /** Synthetic DBLP-like bibliography (papers, authorships) with ground-truth
    * author ids — the evaluation substrate for the IUAD reproduction.
    * See [[repro.dblp.DblpSynth]] for the generator's structural guarantees.
    */
  def dblp(spark: SparkSession, sf: Double = 0.01, seed: Long = 42): (DataFrame, DataFrame) =
    repro.dblp.DblpSynth.generate(spark, repro.dblp.DblpSynth.Config(sf = sf, seed = seed))
}
