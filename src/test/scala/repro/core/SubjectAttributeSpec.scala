package repro.core

import repro.SparkSpec
import repro.lake.{Generators, LakeTable}
import repro.stats.{LogisticModel, LogisticRegressionCD}
import repro.text.Tokenizer

/** The subject-attribute classifier, and the fit behind its held model:
  * generator-labelled columns, logistic regression, table-level accuracy.
  */
class SubjectAttributeSpec extends SparkSpec {

  private lazy val lake = Generators.smallerReal(nClusters = 6, tablesPerCluster = 10, poolSize = 100, seed = 21)

  /** Hand-set linear score; higher = more subject-like. Coefficients follow
    * the Venetis intuitions (leftmost +, nulls −, distinct +, numeric −−).
    */
  private def score(f: Array[Double]): Double =
    -1.2 * f(0) - 1.5 * f(1) + 2.2 * f(2) - 3.0 * f(3) + 0.4 * f(4)

  /** (features, isSubject) examples from generated tables. */
  private def labelledExamples(tables: Seq[LakeTable]): (Array[Array[Double]], Array[Int]) = {
    val rows = tables.flatMap { t =>
      t.columns.zipWithIndex.map { case (c, i) =>
        val nonNull = c.values.count(v => v != null && v.trim.nonEmpty)
        val nullFrac = if (c.values.isEmpty) 1.0 else 1.0 - nonNull.toDouble / c.values.size
        val distinct = c.values.filter(v => v != null && v.trim.nonEmpty).distinct.size
        val dr = if (nonNull > 0) distinct.toDouble / nonNull else 0.0
        val numeric = c.values.count(v => Tokenizer.isNumericValue(v))
        val numFrac = if (nonNull > 0) numeric.toDouble / nonNull else 0.0
        val avgLen = {
          val vs = c.values.filter(_ != null)
          if (vs.isEmpty) 0.0 else vs.map(_.length).sum.toDouble / vs.size
        }
        (SubjectAttribute.features(i, t.arity, nullFrac, dr, numFrac, avgLen), if (c.isSubject) 1 else 0)
      }
    }
    (rows.map(_._1).toArray, rows.map(_._2).toArray)
  }

  /** The supervised model fitted on labelled columns. */
  private def train(tables: Seq[LakeTable]): LogisticModel = {
    val (xs, ys) = labelledExamples(tables)
    LogisticRegressionCD.fit(xs, ys, lambda = 1e-3)
  }

  /** Table-level accuracy: fraction of tables whose argmax-scored column is
    * the true subject. `model = None` evaluates the hand-set [[score]].
    */
  private def tableAccuracy(tables: Seq[LakeTable], model: Option[LogisticModel]): Double = {
    val ok = tables.count { t =>
      val (xs, ys) = labelledExamples(Seq(t))
      val scores = xs.map(f => model.map(_.score(f)).getOrElse(score(f)))
      val pred = scores.zipWithIndex.maxBy(_._1)._2
      ys(pred) == 1
    }
    ok.toDouble / math.max(1, tables.size)
  }

  test("feature vector has five components in [0,1]") {
    val f = SubjectAttribute.features(2, 5, 0.1, 0.9, 0.0, 12.0)
    assert(f.length == 5)
    f.foreach(x => assert(x >= 0.0 && x <= 1.0))
  }

  test("position is normalised by arity") {
    assert(SubjectAttribute.features(0, 5, 0, 0, 0, 0)(0) == 0.0)
    assert(SubjectAttribute.features(4, 5, 0, 0, 0, 0)(0) == 1.0)
    assert(SubjectAttribute.features(0, 1, 0, 0, 0, 0)(0) == 0.0)
  }

  test("score prefers leftmost distinct non-numeric columns") {
    val subject = score(SubjectAttribute.features(0, 5, 0.0, 1.0, 0.0, 15.0))
    val numeric = score(SubjectAttribute.features(3, 5, 0.0, 1.0, 1.0, 5.0))
    val sparse = score(SubjectAttribute.features(1, 5, 0.8, 0.3, 0.0, 10.0))
    assert(subject > numeric)
    assert(subject > sparse)
  }

  test("hand-set heuristic weights are a reasonable fallback (≥75%)") {
    val acc = tableAccuracy(lake.tables, model = None)
    assert(acc >= 0.75, s"heuristic accuracy=$acc")
  }

  test("pipeline's default supervised model reaches the paper's ballpark accuracy (≥85%)") {
    val acc = tableAccuracy(lake.tables, Some(SubjectAttribute.defaultModel))
    assert(acc >= 0.85, s"default-model accuracy=$acc (paper: 0.89)")
  }

  test("the pipeline's default model is the fit on its seed-12345 training lake") {
    val fit = train(Generators.smallerReal(nClusters = 8, tablesPerCluster = 12, poolSize = 120, seed = 12345).tables)
    val held = SubjectAttribute.defaultModel
    assert(fit.weights.length == held.weights.length)
    (fit.weights :+ fit.intercept).zip(held.weights :+ held.intercept).foreach { case (f, h) =>
      assert(math.abs(f - h) <= 1e-9, s"refit ${fit.weights.mkString(", ")} | ${fit.intercept}")
    }
  }

  test("supervised variant trained on held-out lakes also reaches ≥85%") {
    val trainLake = Generators.smallerReal(nClusters = 6, tablesPerCluster = 10, poolSize = 100, seed = 22)
    val model = train(trainLake.tables)
    val acc = tableAccuracy(lake.tables, Some(model))
    assert(acc >= 0.85, s"trained accuracy=$acc")
  }

  test("labelledExamples yields one positive per table") {
    val (xs, ys) = labelledExamples(lake.tables.take(10))
    assert(ys.count(_ == 1) == 10)
    assert(xs.length == lake.tables.take(10).map(_.arity).sum)
  }

  test("predict returns exactly one subject per table") {
    val idx = FeatureExtraction.extract(spark, repro.lake.LakeDf.toLong(spark, lake.tables.take(8)))
    val per = idx.subjects.groupBy("table_id").count().collect()
    assert(per.length == 8)
    per.foreach(r => assert(r.getLong(1) == 1))
  }

  test("predict never selects an all-numeric column when text exists") {
    val idx = FeatureExtraction.extract(spark, repro.lake.LakeDf.toLong(spark, lake.tables.take(8)))
    val chosen = idx.subjects.collect().map(r => (r.getAs[String]("table_id"), r.getAs[Int]("col_idx")))
    chosen.foreach { case (tid, ci) =>
      val col = lake.table(tid).columns(ci)
      val numFrac = col.values.count(v => Tokenizer.isNumericValue(v)).toDouble /
        math.max(1, col.values.count(_ != null))
      assert(numFrac < 0.8, s"$tid#$ci looks numeric")
    }
  }
}
