package repro.core

import scala.collection.mutable

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
  * subject attributes and token embeddings. The per-table features are
  * built on Spark and collected once; queries probe this structure in plain
  * Scala and start no Spark job (DESIGN.md §2, "Build on Spark, serve from
  * the driver").
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

  /** The attributes of `tableIds`, as the target side of a query; every id
    * must be a table of the index.
    */
  def tables(tableIds: Seq[String]): IndexedSeq[ServedAttr] = {
    val ids = tableIds.distinct
    val missing = ids.filterNot(byTable.contains)
    require(missing.isEmpty, s"tables not in the index: ${missing.mkString(", ")}")
    ids.flatMap(byTable).toIndexedSeq
  }
}

object ServingIndex {

  /** Canonical evidence id, so the many deserialised copies of "N" etc. are
    * not all kept alive.
    */
  private def evidenceId(ev: String): String = Evidence.all.find(_ == ev).getOrElse(ev)

  /** Serving form of extracted tables, lake or query target alike: every
    * signature is banded here by [[FeatureExtraction.bucketsOf]].
    * `embeddingsOf` yields the token embeddings on first use; a target has
    * none, as it is embedded with the lake's model.
    */
  def of(tables: Seq[TableFeatures],
         embeddingsOf: () => Map[String, Array[Float]] = () => Map.empty): ServingIndex = {
    val attrs = tables.flatMap { t =>
      val sigs = t.signatures.groupBy(_.attr)
      val samples = t.samples.map(s => s.attr -> s.sample).toMap
      t.profiles.map { p =>
        val ss = sigs.getOrElse(p.attr, Nil).map(s => evidenceId(s.evidence) -> s.sig)
        val buckets = ss.flatMap { case (ev, sig) =>
          FeatureExtraction.bucketsOf(ev, sig).map { case (band, bucket) => BucketKey(ev, band, bucket) }
        }
        ServedAttr(p.attr, p.tableId, p.colIdx, p.tsetSize, ss.toMap, buckets.toVector, samples.get(p.attr))
      }
    }
    new ServingIndex(attrs.toIndexedSeq,
      tables.flatMap(t => t.subject.map(FeatureExtraction.attrId(t.tableId, _))).toSet, embeddingsOf)
  }
}
