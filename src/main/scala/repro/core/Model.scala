package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

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

/** Tunables, defaulted to the paper's §V configuration (τ=0.7, MinHash size
  * 256 via `lsh.MinHash`, q=4 via `text.Tokenizer`).
  */
final case class D3LConfig(
    /** LSH similarity threshold τ. */
    tau: Double = 0.7,
    /** Numeric-attribute detection: fraction of non-null values parsing as numbers. */
    numericFrac: Double = 0.8,
    /** Max numeric-extent sample retained for KS. */
    maxNumericSample: Int = 512,
    /** Algorithm 3 DFS depth cap (paths longer than this add ~no coverage). */
    maxPathLen: Int = 4,
    /** SA-joinability: minimum estimated overlap coefficient (§IV) between
      * the tsets of the joining attributes.
      */
    minJoinOverlap: Double = 0.25,
    /** Eq. 3 evidence weights (N, V, F, E, D order); uniform until trained. */
    evidenceWeights: Map[String, Double] =
      Evidence.all.map(_ -> 1.0).toMap,
) {
  require(evidenceWeights.keySet == Evidence.all.toSet,
    s"evidenceWeights must have exactly the keys ${Evidence.all.mkString(", ")}, " +
      s"got ${evidenceWeights.keys.toSeq.sorted.mkString(", ")}")
  require(evidenceWeights.values.forall(w => w >= 0 && !w.isInfinite),
    s"evidence weights must be finite and non-negative, got $evidenceWeights")
  require(evidenceWeights.values.sum > 0, s"evidence weights must have a positive sum, got $evidenceWeights")
}

/** Catalog entry of one attribute (one row of `LakeIndexes.catalog`). */
final case class AttrProfile(
    attr: String,
    tableId: String,
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
)

/** One signature of one attribute. */
final case class AttrSignature(attr: String, colIdx: Int, evidence: String, sig: Array[Long])

/** Sorted numeric sample (𝔻) of one numeric attribute. */
final case class AttrSample(attr: String, colIdx: Int, sample: Array[Double])

/** Everything Algorithm 1 derives from one table: per-attribute profiles,
  * ℕ/𝕍/𝔽/𝔼 signatures, sorted 𝔻 samples and the column index of the
  * predicted subject attribute.
  */
final case class TableFeatures(
    tableId: String,
    profiles: Seq[AttrProfile],
    signatures: Seq[AttrSignature],
    samples: Seq[AttrSample],
    subject: Option[Int],
)

/** The lake's D³L index, held on the driver: Algorithm 1's output per
  * table ([[features]], built on Spark by [[FeatureExtraction.extract]] and
  * collected once, sorted by table id), the lake-trained token embeddings
  * ([[embeddings]], the lake's one copy of its model) and [[serving]], the
  * features banded into the probe structure that answers queries. Unseen
  * query targets are embedded with [[embeddings]]. After the build no Spark
  * state remains: nothing is persisted or broadcast.
  *
  * The frames below are lazy local views of `features` (`tokenEmbeddings`
  * of [[embeddings]]), for inspection, space accounting (Exp. 7) and tests;
  * neither the build nor the query path reads them.
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

  lazy val catalog: DataFrame = features.flatMap(_.profiles)
    .toDF("attr", "table_id", "col_idx", "col_name", "n_values", "n_distinct", "null_frac",
      "avg_len", "numeric_frac", "is_numeric", "tset_size")
  lazy val signatures: DataFrame = features
    .flatMap(f => f.signatures.map(s => (s.attr, s.evidence, s.sig, f.tableId, s.colIdx)))
    .toDF("attr", "evidence", "sig", "table_id", "col_idx")
  lazy val buckets: DataFrame = features
    .flatMap(f => f.signatures.flatMap(s => FeatureExtraction.bucketsOf(s.evidence, s.sig)
      .map { case (band, bucket) => (s.evidence, band, bucket, s.attr, f.tableId) }))
    .toDF("evidence", "band", "bucket", "attr", "table_id")
  lazy val numericProfiles: DataFrame = features
    .flatMap(f => f.samples.map(s => (s.attr, s.sample, f.tableId, s.colIdx)))
    .toDF("attr", "sample", "table_id", "col_idx")
  lazy val subjects: DataFrame = features
    .flatMap(f => f.subject.map(c => (f.tableId, c, FeatureExtraction.attrId(f.tableId, c))))
    .toDF("table_id", "col_idx", "attr")
  lazy val tokenEmbeddings: DataFrame = embeddings.toSeq.toDF("token", "vec")

  /** Driver-resident probe structure of the index. */
  val serving: ServingIndex = ServingIndex.of(features)

  def cacheAll(): LakeIndexes = this
  def unpersistAll(): Unit = ()
}
