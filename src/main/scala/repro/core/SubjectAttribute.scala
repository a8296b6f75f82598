package repro.core

import repro.stats.LogisticModel

/** Subject-attribute detection (§III-C), after Venetis et al.: the subject
  * attribute names the entities a table is about; it is typically leftmost,
  * non-numeric, with few nulls and many distinct values.
  *
  * The paper trains a supervised model on 350 hand-labelled data.gov.uk
  * tables (89% accuracy). We have no hand labels offline, so the same
  * feature set is scored by a fixed logistic model fitted once (by
  * `stats.LogisticRegressionCD`) on generator-labelled columns.
  * `SubjectAttributeSpec` holds the fit: it refits [[defaultModel]] and
  * asserts ≥85% held-out accuracy, mirroring the paper's figure (DESIGN.md
  * §4.5/4.6).
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

  /** The pipeline's model, as fitted on the generator-labelled columns of a
    * dedicated training lake (Smaller Real, 8 × 12 tables, pool 120, seed
    * 12345, never used by any experiment).
    */
  val defaultModel: LogisticModel = LogisticModel(
    Array(-3.7150245268086275, -1.3811821801352617, -0.30974161767220676, -1.744312499301187, 3.5222620817855064),
    intercept = -1.5562089876265097)

  /** Predicted subject attribute of one table from its attributes' catalog
    * statistics: the argmax model score among non-numeric columns (any
    * column as fallback), ties to the leftmost. Returns its column index.
    */
  def predict(attrs: Seq[AttrFeatures]): Option[Int] = {
    if (attrs.isEmpty) return None
    val arity = attrs.map(_.colIdx).max + 1
    def subjScore(p: AttrFeatures): Double = {
      val dr = if (p.nValues > 0) p.nDistinct.toDouble / p.nValues else 0.0
      val s = defaultModel.score(features(p.colIdx, arity, p.nullFrac, dr, p.numericFrac,
        p.avgLen.filterNot(_.isNaN).getOrElse(0.0)))
      // Numeric columns are never subjects (the paper assumes non-numeric).
      if (p.isNumeric) s - 100.0 else s
    }
    Some(attrs.map(p => (-subjScore(p), p.colIdx))
      .min(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Int))._2)
  }
}
