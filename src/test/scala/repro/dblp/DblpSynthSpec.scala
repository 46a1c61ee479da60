package repro.dblp

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class DblpSynthSpec extends SparkSpec {
  import DblpSynth._

  private lazy val cfg = Config(sf = 0.003, seed = 42L)
  private lazy val papersDf = papers(spark, cfg).cache()
  private lazy val authDf = authorships(spark, cfg).cache()

  test("paper count follows the scale factor") {
    assert(papersDf.count() === cfg.nPapers)
  }

  test("config derives sane sizes") {
    assert(cfg.nPapers >= 400L)
    assert(cfg.nAuthors >= 80)
    assert(cfg.nTeams >= 4)
    assert(cfg.nComms >= 4)
    assert(cfg.nAmbNames >= 6)
  }

  test("every paper has at least one author") {
    val withAuthors = authDf.select("pid").distinct().count()
    assert(withAuthors === cfg.nPapers)
  }

  test("authorships reference valid author ids") {
    import spark.implicits._
    val bad = authDf.filter(col("authorId") < 0 || col("authorId") >= cfg.nAuthors).count()
    assert(bad === 0L)
  }

  test("a name appears at most once per paper (namesakes never co-author)") {
    val dup = authDf.groupBy("pid", "name").count().filter(col("count") > 1).count()
    assert(dup === 0L)
  }

  test("an author appears at most once per paper") {
    val dup = authDf.groupBy("pid", "authorId").count().filter(col("count") > 1).count()
    assert(dup === 0L)
  }

  test("generator is deterministic in (sf, seed)") {
    val again = papers(spark, cfg).collect().map(_.toString).sorted
    val first = papersDf.collect().map(_.toString).sorted
    assert(first.sameElements(again))
  }

  test("different seeds give different corpora") {
    val other = papers(spark, cfg.copy(seed = 43L)).collect().map(_.toString).sorted
    val first = papersDf.collect().map(_.toString).sorted
    assert(!first.sameElements(other))
  }

  test("ambiguous names are shared by 2..17 authors") {
    val names = buildNames(cfg)
    val byName = names.zipWithIndex.groupBy(_._1)
    val amb = byName.filter(_._1.startsWith("Amb_"))
    assert(amb.nonEmpty)
    amb.foreach { case (n, as) =>
      assert(as.length >= 1 && as.length <= 17, s"$n shared by ${as.length}")
    }
    assert(amb.count(_._2.length >= 2) >= cfg.nAmbNames / 2)
  }

  test("namesakes are spread across different teams") {
    val names = buildNames(cfg)
    val groups = names.zipWithIndex.groupBy(_._1).filter(_._2.length >= 2)
    val spread = groups.count { case (_, as) =>
      as.map(a => teamOf(a._2.toLong, cfg)).distinct.length >= 2
    }
    assert(spread >= groups.size * 7 / 10, s"only $spread of ${groups.size} namesake groups span ≥2 teams")
  }

  test("name-pair co-occurrence frequencies are heavy-tailed (Fig 3b)") {
    import spark.implicits._
    val occ = authDf.select("pid", "name")
    val pairs = occ.as("l")
      .join(occ.as("r"), col("l.pid") === col("r.pid") && col("l.name") < col("r.name"))
      .groupBy(col("l.name"), col("r.name"))
      .agg(count(lit(1)).as("cnt"))
      .select("cnt").as[Long].collect()
    assert(pairs.nonEmpty)
    val max = pairs.max
    val singles = pairs.count(_ == 1L)
    // Heavy tail: some pairs co-occur many times while most co-occur once.
    assert(max >= 5L, s"max pair frequency $max too flat for SCR mining")
    assert(singles.toDouble / pairs.length > 0.2)
  }

  test("titles contain community-topic words") {
    import spark.implicits._
    val words = papersDf.select(explode(col("title")).as("w")).as[String].collect()
    assert(words.exists(_.startsWith("t")))
    assert(words.exists(_.startsWith("g_w")))
  }

  test("years fall in the configured window") {
    val mm = papersDf.agg(min("year"), max("year")).collect()(0)
    assert(mm.getInt(0) >= cfg.baseYear)
    assert(mm.getInt(1) <= cfg.baseYear + cfg.yearSpan + 15)
  }

  test("oracle: papers-per-venue counts match DuckDB") {
    val sparkAgg = papersDf.groupBy("venue").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT venue, count(*) AS n FROM papers GROUP BY venue",
      "papers" -> papersDf.select("pid", "venue"),
    )
  }

  test("oracle: per-name paper counts match DuckDB") {
    val sparkAgg = authDf.groupBy("name").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT name, count(*) AS n FROM auth GROUP BY name",
      "auth" -> authDf.select("pid", "name"),
    )
  }

  test("testing subset shape: ambiguous names with multiple true authors exist") {
    val amb = authDf
      .groupBy("name")
      .agg(countDistinct("authorId").as("k"))
      .filter(col("k") >= 2)
      .count()
    assert(amb >= 5, s"need ambiguous names in the corpus, got $amb")
  }
}
