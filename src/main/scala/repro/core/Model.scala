package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.lsh.Banding

/** Shared identifiers and configuration for the D³L pipeline. */
object Evidence {
  val N = "N" // attribute-name q-grams, Jaccard / MinHash
  val V = "V" // informative value tokens, Jaccard / MinHash
  val F = "F" // format regex strings, Jaccard / MinHash
  val E = "E" // word-embedding vectors, cosine / random projection
  val D = "D" // numeric domain distribution, Kolmogorov–Smirnov (no LSH)
  val indexed: Seq[String] = Seq(N, V, F, E)
  val all: Seq[String] = Seq(N, V, F, E, D)
}

/** The Eq. 3 evidence weights, the one setting of the pipeline, and its
  * constants, the paper's §V configuration (τ=0.7, MinHash size 256 via
  * `lsh.MinHash`, q=4 via `text.Tokenizer`).
  */
final case class D3LConfig(
    /** Eq. 3 evidence weights (N, V, F, E, D order); uniform until trained. */
    evidenceWeights: Map[String, Double] =
      Evidence.all.map(_ -> 1.0).toMap,
) {
  /** LSH similarity threshold τ. */
  val tau: Double = 0.7
  /** Numeric-attribute detection: fraction of non-null values parsing as numbers. */
  val numericFrac: Double = 0.8
  /** Max numeric-extent sample retained for KS. */
  val maxNumericSample: Int = 512
  /** Algorithm 3 DFS depth cap (paths longer than this add ~no coverage). */
  val maxPathLen: Int = 4
  /** SA-joinability: minimum estimated overlap coefficient (§IV) of the joining attributes' tsets. */
  val minJoinOverlap: Double = 0.25

  require(evidenceWeights.keySet == Evidence.all.toSet,
    s"evidenceWeights must have exactly the keys ${Evidence.all.mkString(", ")}, " +
      s"got ${evidenceWeights.keys.toSeq.sorted.mkString(", ")}")
  require(evidenceWeights.values.forall(w => w >= 0 && !w.isInfinite),
    s"evidence weights must be finite and non-negative, got $evidenceWeights")
  require(evidenceWeights.values.sum > 0, s"evidence weights must have a positive sum, got $evidenceWeights")
}

/** Algorithm 1's output for one attribute: its catalog statistics (one row
  * of `LakeIndexes.catalog`), its signatures and its 𝔻 sample. Its id is
  * `FeatureExtraction.attrId(tableId, colIdx)` of its table.
  */
final case class AttrFeatures(
    colIdx: Int,
    colName: String,
    nValues: Long,
    nDistinct: Long,
    nullFrac: Double,
    /** Mean length of the non-empty values; None when there are none. */
    avgLen: Option[Double],
    numericFrac: Double,
    isNumeric: Boolean,
    /** |T(a)|: distinct informative (𝕍) tokens; 0 for numeric attributes. */
    tsetSize: Long,
    /** Signature per indexed evidence ordinal of [[Evidence.all]] (ℕ, 𝕍, 𝔽,
      * 𝔼), as [[ServedAttr.sigs]] indexes them; empty when the attribute has
      * none. 𝔼 is a packed `lsh.RandomProjection` signature of 4 `Long`s.
      */
    sigs: Array[Array[Long]],
    /** Sorted numeric sample (𝔻); None for non-numeric attributes. */
    sample: Option[Array[Double]],
)

/** Everything Algorithm 1 derives from one table: one record per attribute,
  * in column order, and the column index of the predicted subject attribute.
  */
final case class TableFeatures(tableId: String, attrs: Seq[AttrFeatures], subject: Option[Int])

/** The lake's D³L index, held on the driver: Algorithm 1's output per
  * table ([[features]], built on Spark by [[FeatureExtraction.extract]] and
  * collected once, sorted by table id), the lake-trained token embeddings
  * ([[embeddings]], the lake's one copy of its model) and [[serving]], the
  * features banded into the probe structure that answers queries, built on
  * its first use. Unseen query targets are embedded with [[embeddings]].
  * After the build no Spark state remains: nothing is persisted or
  * broadcast.
  *
  * The frames below are lazy local views of the per-attribute records of
  * `features` (`tokenEmbeddings` of [[embeddings]]), for inspection, space
  * accounting (Exp. 7) and tests; neither the build nor the query path
  * reads them. `signatures` and `buckets` list each attribute's evidence in
  * the order Algorithm 1 derives it: ℕ, 𝔽, 𝕍, 𝔼.
  *
  *  - catalog:          attr, table_id, col_idx, col_name, n_values,
  *                      n_distinct, null_frac, avg_len, numeric_frac,
  *                      is_numeric, tset_size
  *  - signatures:       attr, evidence, sig (array<long>), table_id, col_idx
  *  - buckets:          evidence, band, bucket, attr, table_id  — the indexes
  *  - numericProfiles:  attr, sample (sorted array<double>), table_id, col_idx
  *  - subjects:         table_id, col_idx, attr — predicted subject attribute
  *  - tokenEmbeddings:  token, vec (array<float>)
  *
  * [[cacheAll]] and [[unpersistAll]] have nothing to persist or release;
  * they remain for callers written against the Spark-cached index.
  */
final class LakeIndexes private[core] (
    spark: SparkSession,
    /** Algorithm 1's output, one entry per table, in table-id order. */
    val features: Seq[TableFeatures],
    /** Lake-trained token → vector. */
    val embeddings: Map[String, Array[Float]],
) {
  import spark.implicits._

  /** Evidence ordinals in the order Algorithm 1 derives an attribute's
    * signatures, ℕ, 𝔽, 𝕍, 𝔼, which is the order the frames list them in.
    */
  private val kernelOrder = Seq(Evidence.N, Evidence.F, Evidence.V, Evidence.E).map(Evidence.all.indexOf)

  /** Every attribute as (table id, attribute id, record), in table-id and
    * column order.
    */
  private def attrs: Seq[(String, String, AttrFeatures)] =
    features.flatMap(f => f.attrs.map(a => (f.tableId, FeatureExtraction.attrId(f.tableId, a.colIdx), a)))

  /** Every signature as (table id, attribute id, record, evidence ordinal). */
  private def signed: Seq[(String, String, AttrFeatures, Int)] =
    for ((t, id, a) <- attrs; e <- kernelOrder if a.sigs(e).nonEmpty) yield (t, id, a, e)

  lazy val catalog: DataFrame = attrs
    .map { case (t, id, a) => (id, t, a.colIdx, a.colName, a.nValues, a.nDistinct, a.nullFrac, a.avgLen,
      a.numericFrac, a.isNumeric, a.tsetSize) }
    .toDF("attr", "table_id", "col_idx", "col_name", "n_values", "n_distinct", "null_frac",
      "avg_len", "numeric_frac", "is_numeric", "tset_size")
  lazy val signatures: DataFrame = signed
    .map { case (t, id, a, e) => (id, Evidence.all(e), a.sigs(e), t, a.colIdx) }
    .toDF("attr", "evidence", "sig", "table_id", "col_idx")
  lazy val buckets: DataFrame = signed
    .flatMap { case (t, id, a, e) => Banding.buckets(a.sigs(e), ServingIndex.levels(e))
      .map { case (band, bucket) => (Evidence.all(e), band, bucket, id, t) } }
    .toDF("evidence", "band", "bucket", "attr", "table_id")
  lazy val numericProfiles: DataFrame = attrs
    .flatMap { case (t, id, a) => a.sample.map(s => (id, s, t, a.colIdx)) }
    .toDF("attr", "sample", "table_id", "col_idx")
  lazy val subjects: DataFrame = features
    .flatMap(f => f.subject.map(c => (f.tableId, c, FeatureExtraction.attrId(f.tableId, c))))
    .toDF("table_id", "col_idx", "attr")
  lazy val tokenEmbeddings: DataFrame = embeddings.toSeq.toDF("token", "vec")

  /** Driver-resident probe structure of the index. */
  lazy val serving: ServingIndex = ServingIndex.of(features)

  def cacheAll(): LakeIndexes = this
  def unpersistAll(): Unit = ()
}
