package repro.bench

import java.io.File
import repro.SparkSpec
import repro.exp.Experiments

/** Shared benchmark fixtures: one corpus per JVM at BENCH_SF (default 0.1,
  * ~64 k papers — the "SF=0.1" benchmark scale). Every TableXBench writes its
  * rows with [[record]]; EXPERIMENTS.md sets them next to the paper's numbers.
  */
object Bench {
  val sf: Double = sys.env.getOrElse("BENCH_SF", "0.1").toDouble
  val seed: Long = sys.env.getOrElse("BENCH_SEED", "42").toLong

  lazy val corpus: Experiments.Corpus = Experiments.corpus(SparkSpec.shared, sf, seed)

  /** IUAD run shared between Table III and Table IV benches. */
  lazy val iuad: Experiments.IuadRun = Experiments.runIuad(SparkSpec.shared, corpus)

  /** Computes a table's rows and writes them to `BENCH_<table>.json` in the
    * working directory. The wall time includes any shared fixture that the
    * rows force first.
    */
  def record[R <: AnyRef](table: String)(rows: => Seq[R]): Seq[R] = {
    val (rs, wallS) = Experiments.timed(rows)
    Experiments.write(table, corpus, wallS, rs, new File("."))
    rs
  }
}

/** Base trait adding the shared session to bench suites. */
trait BenchSpec extends SparkSpec
