package repro.perfbench

import repro.dblp.DblpSynth

/** A benchmark workload: the generator settings of its corpus, by seed. */
final case class Workload(name: String, corpus: Long => DblpSynth.Config)

object Workloads {

  /** Both corpora have the same paper count (SF 0.002, 1,282 papers), so a
    * difference between them comes from their shape. Query planning bounds
    * the program at this scale, so a larger corpus would add little signal
    * and push a traced run past three minutes on a slow host; why each
    * workload exists is in BENCHMARK.json and README.md.
    */
  val all: Seq[Workload] = Seq(
    // Many same-name vertices: candidate pairs and scoring dominate.
    Workload("namesakes", seed => DblpSynth.Config(sf = 0.002, seed = seed, ambNameShare = 8, loneProb = 0.5)),
    // Stable teams, few namesakes: SCR/SCN, profiles and evaluation dominate.
    Workload("teams", seed => DblpSynth.Config(
      sf = 0.002, seed = seed, ambNameShare = 1000, loneProb = 0.05, authorsPerPaper = 4, teamSize = 8)),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}
