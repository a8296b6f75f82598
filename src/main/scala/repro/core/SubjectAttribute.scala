package repro.core

import repro.lake.LakeTable
import repro.stats.{LogisticModel, LogisticRegressionCD}

/** Subject-attribute detection (§III-C), after Venetis et al.: the subject
  * attribute names the entities a table is about; it is typically leftmost,
  * non-numeric, with few nulls and many distinct values.
  *
  * The paper trains a supervised model on 350 hand-labelled data.gov.uk
  * tables (89% accuracy). We have no hand labels offline, so the same
  * feature set is scored by a fixed linear model whose weights were fitted
  * once (via [[LogisticRegressionCD]]) on generator-labelled columns; the
  * `SubjectAttributeSpec` test re-fits on fresh lakes and asserts ≥85%
  * held-out accuracy, mirroring the paper's figure (DESIGN.md §4.5/4.6).
  */
object SubjectAttribute {

  /** Feature vector of one column: [posNorm, nullFrac, distinctRatio,
    * numericFrac, avgLenNorm].
    */
  def features(colIdx: Int, arity: Int, nullFrac: Double, distinctRatio: Double,
               numericFrac: Double, avgLen: Double): Array[Double] = Array(
    if (arity <= 1) 0.0 else colIdx.toDouble / (arity - 1),
    nullFrac,
    distinctRatio,
    numericFrac,
    math.min(1.0, avgLen / 25.0),
  )

  /** Hand-set linear score; higher = more subject-like. Coefficients follow
    * the Venetis intuitions (leftmost +, nulls −, distinct +, numeric −−).
    * Kept as a transparent fallback/tests reference; the pipeline uses
    * [[defaultModel]], which reaches the paper-level accuracy.
    */
  def score(f: Array[Double]): Double =
    -1.2 * f(0) - 1.5 * f(1) + 2.2 * f(2) - 3.0 * f(3) + 0.4 * f(4)

  /** The pipeline's supervised model, trained once per JVM on a dedicated
    * generated training lake (seed 12345 — never used by any experiment),
    * standing in for the paper's 350 hand-labelled data.gov.uk tables.
    */
  lazy val defaultModel: LogisticModel =
    train(repro.lake.Generators.smallerReal(
      nClusters = 8, tablesPerCluster = 12, poolSize = 120, seed = 12345).tables)

  /** Predicted subject attribute of one table from its catalog entries:
    * the argmax model score among non-numeric columns (any column as
    * fallback), ties to the leftmost. Returns its column index.
    */
  def predict(profiles: Seq[AttrProfile]): Option[Int] = {
    if (profiles.isEmpty) return None
    val model = defaultModel
    val arity = profiles.map(_.colIdx).max + 1
    def subjScore(p: AttrProfile): Double = {
      val dr = if (p.nValues > 0) p.nDistinct.toDouble / p.nValues else 0.0
      val s = model.score(features(p.colIdx, arity, p.nullFrac, dr, p.numericFrac,
        p.avgLen.filterNot(_.isNaN).getOrElse(0.0)))
      // Numeric columns are never subjects (the paper assumes non-numeric).
      if (p.isNumeric) s - 100.0 else s
    }
    Some(profiles.map(p => (-subjScore(p), p.colIdx))
      .min(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int))._2)
  }

  // ---- training/evaluation utilities (used by tests, not by the pipeline) --

  /** Build (features, isSubject) examples from generated tables. */
  def labelledExamples(tables: Seq[LakeTable]): (Array[Array[Double]], Array[Int]) = {
    val rows = tables.flatMap { t =>
      t.columns.zipWithIndex.map { case (c, i) =>
        val nonNull = c.values.count(v => v != null && v.trim.nonEmpty)
        val nullFrac = if (c.values.isEmpty) 1.0 else 1.0 - nonNull.toDouble / c.values.size
        val distinct = c.values.filter(v => v != null && v.trim.nonEmpty).distinct.size
        val dr = if (nonNull > 0) distinct.toDouble / nonNull else 0.0
        val numeric = c.values.count(v => repro.text.Tokenizer.isNumericValue(v))
        val numFrac = if (nonNull > 0) numeric.toDouble / nonNull else 0.0
        val avgLen = {
          val vs = c.values.filter(_ != null)
          if (vs.isEmpty) 0.0 else vs.map(_.length).sum.toDouble / vs.size
        }
        (features(i, t.arity, nullFrac, dr, numFrac, avgLen), if (c.isSubject) 1 else 0)
      }
    }
    (rows.map(_._1).toArray, rows.map(_._2).toArray)
  }

  /** Fit the supervised variant on labelled columns. */
  def train(tables: Seq[LakeTable]): LogisticModel = {
    val (xs, ys) = labelledExamples(tables)
    LogisticRegressionCD.fit(xs, ys, lambda = 1e-3)
  }

  /** Table-level accuracy: fraction of tables whose argmax-scored column is
    * the true subject. `model = None` evaluates the fixed heuristic weights.
    */
  def tableAccuracy(tables: Seq[LakeTable], model: Option[LogisticModel]): Double = {
    val ok = tables.count { t =>
      val (xs, ys) = labelledExamples(Seq(t))
      val scores = xs.map(f => model.map(_.score(f)).getOrElse(score(f)))
      val pred = scores.zipWithIndex.maxBy(_._1)._2
      ys(pred) == 1
    }
    ok.toDouble / math.max(1, tables.size)
  }
}
