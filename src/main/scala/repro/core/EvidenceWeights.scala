package repro.core

import org.apache.spark.sql.SparkSession
import repro.lake.Lake
import repro.stats.{LogisticModel, LogisticRegressionCD}

/** Eq. 3 evidence weights, learnt as in §III-D: build (T,S) pairs with their
  * five Eq. 1 distances as features, label them related/unrelated from the
  * ground truth, fit logistic regression by coordinate descent, and use the
  * absolute coefficients as the weights (the classifier separates related
  * from unrelated pairs, so its coefficient magnitudes measure how much each
  * evidence type contributes to that separation).
  */
object EvidenceWeights {

  final case class Trained(weights: Map[String, Double], model: LogisticModel,
                           trainAccuracy: Double, examples: Int)

  /** Assemble labelled examples by querying `targetIds` (uniform weights)
    * and labelling every retrieved (target, candidate) pair from the truth.
    * Features are 1 − distance per evidence, so larger coefficient = more
    * useful evidence; negatives are capped at 3× positives for balance.
    */
  def buildExamples(spark: SparkSession, idx: LakeIndexes, lake: Lake,
                    targetIds: Seq[String], cfg: D3LConfig = D3LConfig())
      : (Array[Array[Double]], Array[Int]) = {
    val labelled = D3L.queryAll(spark, idx, targetIds, cfg).ranked.toArray.map { r =>
      (r.dist.map(1 - _).toArray, if (lake.truth.related(r.tTable, r.sTable)) 1 else 0)
    }
    val (pos, neg) = labelled.partition(_._2 == 1)
    val rnd = new scala.util.Random(42)
    val negKeep = rnd.shuffle(neg.toSeq).take(math.max(8, pos.length * 3)).toArray
    val all = rnd.shuffle((pos ++ negKeep).toSeq).toArray
    (all.map(_._1), all.map(_._2))
  }

  /** Train and return normalised weights (mean 1 across the five types).
    * Degenerate fits (all-zero coefficients) fall back to uniform weights.
    */
  def train(spark: SparkSession, idx: LakeIndexes, lake: Lake,
            targetIds: Seq[String], cfg: D3LConfig = D3LConfig()): Trained = {
    val (xs, ys) = buildExamples(spark, idx, lake, targetIds, cfg)
    val model = LogisticRegressionCD.fit(xs, ys, lambda = 1e-3)
    val acc = LogisticRegressionCD.accuracy(model, xs, ys)
    val raw = Evidence.all.zip(model.weights.map(math.abs)).toMap
    val sum = raw.values.sum
    val weights =
      if (sum < 1e-9) Evidence.all.map(_ -> 1.0).toMap
      else raw.map { case (k, v) => k -> v * Evidence.all.size / sum }
    Trained(weights, model, acc, xs.length)
  }
}
