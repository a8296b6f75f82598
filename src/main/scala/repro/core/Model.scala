package repro.core

import org.apache.spark.sql.DataFrame

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
)

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

/** The four LSH indexes plus the auxiliary structures D³L needs at query
  * time, as DataFrames built on Spark. Queries are answered from
  * [[serving]], the same content collected once into driver memory.
  *
  *  - catalog:          attr, table_id, col_idx, col_name, n_values,
  *                      n_distinct, null_frac, avg_len, numeric_frac,
  *                      is_numeric, tset_size
  *  - signatures:       attr, evidence, sig (array<long>), table_id, col_idx
  *  - buckets:          evidence, band, bucket, attr, table_id  — the indexes
  *  - numericProfiles:  attr, sample (sorted array<double>), table_id, col_idx
  *  - subjects:         table_id, col_idx, attr — predicted subject attribute
  *  - tokenEmbeddings:  token, vec (array<float>) — lake-trained embeddings,
  *                      needed to embed unseen target values at query time
  */
final case class LakeIndexes(
    catalog: DataFrame,
    signatures: DataFrame,
    buckets: DataFrame,
    numericProfiles: DataFrame,
    subjects: DataFrame,
    tokenEmbeddings: DataFrame,
) {
  /** Driver-resident copy of the indexes, collected on first use. */
  lazy val serving: ServingIndex = ServingIndex.collect(this)

  def cacheAll(): LakeIndexes = {
    Seq(catalog, signatures, buckets, numericProfiles, subjects, tokenEmbeddings)
      .foreach(df => { df.cache(); df.count() })
    this
  }
  def unpersistAll(): Unit =
    Seq(catalog, signatures, buckets, numericProfiles, subjects, tokenEmbeddings)
      .foreach(_.unpersist())
}
