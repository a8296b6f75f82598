package repro.core

import scala.collection.mutable
import org.apache.spark.sql.DataFrame

/** One LSH bucket: a (band, bucket) of one evidence type's index. */
final case class BucketKey(evidence: String, band: Int, bucket: Long)

/** One attribute as the serving index holds it. */
final case class ServedAttr(
    attr: String,
    tableId: String,
    colIdx: Int,
    tsetSize: Long,
    /** evidence → signature (ℕ/𝕍/𝔽/𝔼, whichever the attribute has). */
    signatures: Map[String, Array[Long]],
    /** Every bucket the attribute sits in, over all four indexes. */
    buckets: Seq[BucketKey],
    /** Sorted numeric sample (𝔻); None for non-numeric attributes. */
    sample: Option[Array[Double]],
)

/** Immutable, driver-resident form of [[LakeIndexes]]: the bucket map
  * (evidence, band, bucket) → attributes, signatures, numeric samples,
  * subject attributes and token embeddings. Indexes are built on Spark and
  * collected once; queries probe this structure in plain Scala and start no
  * Spark job (DESIGN.md §2, "Build on Spark, serve from the driver").
  *
  * Per attribute it holds ≈228 bucket keys (60 each for ℕ/𝕍/𝔽, 48 for 𝔼),
  * up to four 256-long signatures and at most `maxNumericSample` doubles.
  */
final class ServingIndex(
    val attrs: IndexedSeq[ServedAttr],
    val subjects: Set[String],
    embeddingsOf: () => Map[String, Array[Float]],
) {
  /** Lake-trained token → vector, used to embed unseen target values. */
  lazy val embeddings: Map[String, Array[Float]] = embeddingsOf()

  lazy val byTable: Map[String, IndexedSeq[ServedAttr]] = attrs.groupBy(_.tableId)

  private lazy val numericByTable: Map[String, IndexedSeq[ServedAttr]] =
    attrs.filter(_.sample.isDefined).groupBy(_.tableId)

  private lazy val postings: Map[BucketKey, Array[ServedAttr]] = {
    val m = mutable.HashMap.empty[BucketKey, mutable.ArrayBuffer[ServedAttr]]
    attrs.foreach(a => a.buckets.foreach(k => m.getOrElseUpdate(k, mutable.ArrayBuffer.empty) += a))
    m.iterator.map { case (k, as) => k -> as.toArray }.toMap
  }

  /** Attributes sharing bucket `k`. */
  def probe(k: BucketKey): Array[ServedAttr] = postings.getOrElse(k, Array.empty)

  def isSubject(a: ServedAttr): Boolean = subjects.contains(a.attr)

  /** The numeric attributes (those with a 𝔻 sample) of one table. */
  def numeric(tableId: String): IndexedSeq[ServedAttr] = numericByTable.getOrElse(tableId, IndexedSeq.empty)

  /** The attributes of `tableIds`, as the target side of a query. */
  def tables(tableIds: Seq[String]): IndexedSeq[ServedAttr] =
    tableIds.distinct.flatMap(id => byTable.getOrElse(id, IndexedSeq.empty)).toIndexedSeq
}

object ServingIndex {

  /** Canonical evidence id, so the many collected copies of "N" etc. are
    * not all kept alive.
    */
  private def evidenceId(ev: String): String = Evidence.all.find(_ == ev).getOrElse(ev)

  /** `attrs` as (attr, table_id, col_idx, tset_size). */
  private def build(attrs: Seq[(String, String, Int, Long)], sigs: Iterable[(String, String, Array[Long])],
                    buckets: Iterable[(String, BucketKey)], samples: Iterable[(String, Array[Double])],
                    subjects: Set[String], embeddingsOf: () => Map[String, Array[Float]]): ServingIndex = {
    val sigsBy = sigs.groupBy(_._1).map { case (a, ss) => a -> ss.map(s => evidenceId(s._2) -> s._3).toMap }
    val bucketsBy = buckets.groupBy(_._1).map { case (a, ks) => a -> ks.map(_._2).toVector }
    val samplesBy = samples.toMap
    val served = attrs.map { case (a, t, c, n) =>
      ServedAttr(a, t, c, n, sigsBy.getOrElse(a, Map.empty), bucketsBy.getOrElse(a, Vector.empty), samplesBy.get(a))
    }.toIndexedSeq
    new ServingIndex(served, subjects, embeddingsOf)
  }

  /** Serving form of tables extracted on the driver (a query target), with
    * buckets banded as [[FeatureExtraction.bucketsOf]] bands the lake's. It
    * carries no embeddings: a target is embedded with the lake's model.
    */
  def of(tables: Seq[TableFeatures]): ServingIndex = {
    val sigs = tables.flatMap(_.signatures)
    build(
      tables.flatMap(_.profiles).map(p => (p.attr, p.tableId, p.colIdx, p.tsetSize)),
      sigs.map(s => (s.attr, s.evidence, s.sig)),
      sigs.flatMap(s => FeatureExtraction.bucketsOf(s.evidence, s.sig)
        .map { case (band, bucket) => s.attr -> BucketKey(evidenceId(s.evidence), band, bucket) }),
      tables.flatMap(_.samples).map(s => s.attr -> s.sample),
      tables.flatMap(t => t.subject.map(FeatureExtraction.attrId(t.tableId, _))).toSet,
      () => Map.empty)
  }

  /** Collect the frames of `idx` into driver memory. */
  def collect(idx: LakeIndexes): ServingIndex = {
    val spark = idx.catalog.sparkSession
    import spark.implicits._
    def rows[T](df: DataFrame, cols: String*)(implicit enc: org.apache.spark.sql.Encoder[T]): Array[T] =
      df.select(cols.map(org.apache.spark.sql.functions.col): _*).as[T].collect()

    build(
      rows[(String, String, Int, Long)](idx.catalog, "attr", "table_id", "col_idx", "tset_size").toSeq,
      rows[(String, String, Array[Long])](idx.signatures, "attr", "evidence", "sig"),
      rows[(String, String, Int, Long)](idx.buckets, "attr", "evidence", "band", "bucket")
        .map { case (a, ev, band, bucket) => a -> BucketKey(evidenceId(ev), band, bucket) },
      rows[(String, Array[Double])](idx.numericProfiles, "attr", "sample"),
      rows[String](idx.subjects, "attr").toSet,
      () => rows[(String, Array[Float])](idx.tokenEmbeddings, "token", "vec").toMap)
  }
}
