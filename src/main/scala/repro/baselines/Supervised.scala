package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Model.{Metrics, PaperRec, occurrencePapers}
import repro.dblp.WordVectors
import repro.util.{Rng, VectorOps}

/** Supervised pairwise baselines (§VI-A.3(ii)): AdaBoost / GBDT / RF /
  * XGBoost-like classifiers over Treeratpituk-&-Giles-style features of
  * same-name paper pairs. Evaluated by 2-fold cross-prediction over names
  * (train on one half of the testing names, predict the other, swap) so the
  * reported metrics cover the same pairs as the unsupervised methods.
  */
object Supervised {

  val NumFeatures = 8

  /** Feature vector of one same-name paper pair. */
  def pairFeatures(p: PaperRec, q: PaperRec): Array[Double] = {
    val cp = p.coNames.toSet; val cq = q.coNames.toSet
    val commonCo = cp.intersect(cq).size.toDouble
    val unionCo = cp.union(cq).size.toDouble
    val jacCo = if (unionCo == 0) 0.0 else commonCo / unionCo

    val tp = p.title.toSet; val tq = q.title.toSet
    val commonT = tp.intersect(tq).size.toDouble
    val unionT = tp.union(tq).size.toDouble
    val jacT = if (unionT == 0) 0.0 else commonT / unionT

    val cosT = (WordVectors.center(tp.toSeq), WordVectors.center(tq.toSeq)) match {
      case (Some(a), Some(b)) => VectorOps.cosine(a, b)
      case _                  => 0.0
    }

    val venueEq = if (p.venue == q.venue) 1.0 else 0.0
    val yearDiff = math.abs(p.year - q.year).toDouble
    val minCo = math.min(cp.size, cq.size).toDouble

    Array(commonCo, jacCo, jacT, cosT, venueEq, yearDiff, minCo, commonT)
  }

  final case class LabeledPair(
      name: String,
      pid1: Long,
      pid2: Long,
      x: Array[Double],
      label: Int, // 1 = same true author
  )

  /** All labelled same-name pairs for the given names, collected to the
    * driver (testing-set scale: a few thousand pairs). Each name's papers are
    * taken in (pid, author id) order.
    */
  def labeledPairs(
      spark: SparkSession,
      papers: DataFrame,
      authorships: DataFrame,
      names: DataFrame,
  ): Array[LabeledPair] = {
    import spark.implicits._
    val occurrences = authorships.select("pid", "name", "authorId").distinct().join(names, Seq("name"))
    occurrencePapers[Long](occurrences.select("authorId", "name", "pid"), papers, authorships)
      .groupByKey(_.name)
      .flatMapGroups { (name, it) =>
        val rows = it.toIndexedSeq.sortBy(o => (o.pid, o.key))
        val recs = rows.map(_.paper)
        for {
          i <- rows.indices.iterator
          j <- ((i + 1) until rows.size).iterator
        } yield LabeledPair(
          name, rows(i).pid, rows(j).pid,
          pairFeatures(recs(i), recs(j)),
          if (rows(i).key == rows(j).key) 1 else 0,
        )
      }
      .collect()
  }

  private def train(algo: String, xs: Array[Array[Double]], y: Array[Int]): Ensembles.BinaryClassifier =
    algo match {
      case "adaboost" => Ensembles.adaBoost(xs, y)
      case "gbdt"     => Ensembles.gbdt(xs, y)
      case "rf"       => Ensembles.randomForest(xs, y)
      case "xgboost"  => Ensembles.xgbLike(xs, y)
      case other      => throw new IllegalArgumentException(s"unknown supervised algo: $other")
    }

  val Algorithms: Set[String] = Set("adaboost", "gbdt", "rf", "xgboost")

  /** 2-fold cross-prediction by name hash: micro counts over all pairs. */
  def crossPredict(pairs: Array[LabeledPair], algo: String, seed: Long = 31L, maxTrain: Int = 20000): Metrics = {
    require(Algorithms.contains(algo), s"unknown supervised algo: $algo")
    require(pairs.nonEmpty, "no labelled pairs")
    val fold: LabeledPair => Int = p => (Rng.mix(seed, p.name.hashCode.toLong) & 1L).toInt
    var m = Metrics(0, 0, 0, 0)
    for (test <- 0 to 1) {
      val trainPairs0 = pairs.filter(fold(_) != test)
      val testPairs = pairs.filter(fold(_) == test)
      if (trainPairs0.nonEmpty && testPairs.nonEmpty) {
        val trainPairs =
          if (trainPairs0.length <= maxTrain) trainPairs0
          else trainPairs0.sortBy(p => Rng.mix(seed, p.pid1, p.pid2)).take(maxTrain)
        val clf = train(algo, trainPairs.map(_.x), trainPairs.map(_.label))
        testPairs.foreach { p =>
          val pred = clf.predict(p.x)
          val truth = p.label == 1
          m = m + Metrics(
            if (pred && truth) 1 else 0,
            if (pred && !truth) 1 else 0,
            if (!pred && truth) 1 else 0,
            if (!pred && !truth) 1 else 0,
          )
        }
      }
    }
    m
  }
}
