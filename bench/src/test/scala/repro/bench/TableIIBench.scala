package repro.bench

import repro.exp.Experiments

/** Table II: descriptive statistics of the testing dataset.
  *
  * Paper (real DBLP ∩ DAminer): 50 names, 336 authors, 1 529 testing papers;
  * per-name author counts range 2..17. Ours is the synthetic ambiguous-name
  * subset at BENCH_SF — we reproduce the *shape*: tens of testing names,
  * hundreds of authors, author multiplicities in the same band.
  */
class TableIIBench extends BenchSpec {

  test("Table II: testing-set statistics") {
    val rows = Bench.record("II")(Experiments.tableII(spark, Bench.corpus))
    val totalNames = rows.length
    val totalAuthors = rows.map(_.authors).sum
    val totalPapers = rows.map(_.papers).sum

    assert(totalNames >= 20, s"testing subset too small: $totalNames names")
    assert(totalAuthors >= 2L * totalNames, "ambiguous names must average >= 2 authors")
    assert(rows.forall(r => r.authors >= 2 && r.authors <= 20),
      "authors per name outside the plausible 2..20 band")
    assert(totalPapers > totalAuthors, "authors should average more than one paper")
  }
}
