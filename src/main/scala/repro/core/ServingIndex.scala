package repro.core

import scala.collection.immutable.ArraySeq
import repro.lsh.{Banding, BucketIndex}

/** One attribute as the serving index holds it, or a query target resolved
  * against it ([[ServingIndex.targets]]). Evidence ordinals index
  * [[Evidence.all]] (ℕ, 𝕍, 𝔽, 𝔼 are 0–3).
  */
final case class ServedAttr(
    /** Dense id: the attribute's position in its index's `attrs` (or targets). */
    id: Int,
    tableId: String,
    /** Dense id of `tableId` in its index's `tableIds` (or targets' tables). */
    table: Int,
    colIdx: Int,
    tsetSize: Long,
    /** Predicted subject attribute of its table. */
    subject: Boolean,
    /** Signature per indexed evidence ordinal, as extracted
      * ([[AttrFeatures.sigs]], the same arrays); empty when it has none.
      */
    sigs: Array[Array[Long]],
    /** Ids of the lake's buckets holding the attribute, per indexed evidence
      * ordinal, in banding order.
      */
    buckets: Array[Array[Int]],
    /** Sorted numeric sample (𝔻); None for non-numeric attributes. */
    sample: Option[Array[Double]],
)

/** Immutable, driver-resident probe structure of [[LakeIndexes]]: the
  * attributes of Algorithm 1's records ([[AttrFeatures]], built on Spark and
  * collected once) with their signatures, numeric samples and subject flags,
  * and the [[BucketIndex]] of their signatures, one group per indexed
  * evidence type. Queries probe it in plain Scala and start no Spark job
  * (DESIGN.md §2, "Build on Spark, serve from the driver"); a query target
  * is embedded with [[LakeIndexes.embeddings]].
  *
  * Attributes, tables and buckets carry dense `Int` ids, so the query path
  * dedupes and accumulates into arrays instead of hashing strings. Per
  * attribute it holds ≈228 bucket ids (60 each for ℕ/𝕍/𝔽, 48 for 𝔼); its
  * signatures and sample are the arrays of its [[AttrFeatures]], not copies.
  */
final class ServingIndex private (
    val attrs: IndexedSeq[ServedAttr],
    val tableIds: IndexedSeq[String],
    val lsh: BucketIndex, // item i is attribute i, group e evidence ordinal e
) {
  private val tableIndex: Map[String, Int] = tableIds.iterator.zipWithIndex.toMap

  private val byTable: Array[IndexedSeq[ServedAttr]] = {
    val g = attrs.groupBy(_.table)
    Array.tabulate(tableIds.size)(t => g.getOrElse(t, IndexedSeq.empty))
  }

  private val numericByTable: Array[Array[Int]] =
    byTable.map(_.iterator.filter(_.sample.isDefined).map(_.id).toArray)

  /** Dense id of table `tableId`, or -1 when the index does not hold it. */
  def tableOf(tableId: String): Int = tableIndex.getOrElse(tableId, -1)

  /** Ids of the numeric attributes (those with a 𝔻 sample) of table `t`. */
  def numeric(t: Int): Array[Int] = numericByTable(t)

  /** The attributes of `tableIds`, as the target side of a query; every id
    * must be a table of the index.
    */
  def tables(tableIds: Seq[String]): IndexedSeq[ServedAttr] = {
    val ids = tableIds.distinct
    val missing = ids.filterNot(tableIndex.contains)
    require(missing.isEmpty, s"tables not in the index: ${missing.mkString(", ")}")
    ids.flatMap(id => byTable(tableIndex(id))).toIndexedSeq
  }

  /** Extracted tables (lake members or not) as the target side of a query:
    * each signature is resolved to the buckets of this index that hold its
    * band hashes ([[BucketIndex.resolve]]).
    */
  def targets(tables: Seq[TableFeatures]): IndexedSeq[ServedAttr] = ServingIndex.assemble(tables,
    tables.flatMap(_.attrs).map(a => Array.tabulate(lsh.levels.size)(e => lsh.resolve(e, a.sigs(e)))))
}

object ServingIndex {

  /** Banding levels per indexed evidence ordinal: the MinHash ones for ℕ/𝕍/𝔽, the simhash ones for 𝔼. */
  val levels: IndexedSeq[Seq[Banding.Level]] = BucketIndex.levels(Evidence.indexed, Evidence.E)

  /** Serving form of the lake's extracted tables: the [[BucketIndex]] of
    * their attributes' signatures, in table and column order.
    */
  def of(tables: Seq[TableFeatures]): ServingIndex = {
    val sigs = tables.flatMap(_.attrs.map(_.sigs)).toIndexedSeq
    val lsh = BucketIndex(levels, sigs.size)((i, e) => sigs(i)(e))
    new ServingIndex(assemble(tables, sigs.indices.map(lsh.bucketsOf)), tables.map(_.tableId).toIndexedSeq, lsh)
  }

  /** The attributes of `tables` in order, with dense ids from 0, the i-th holding `buckets(i)`. */
  private def assemble(tables: Seq[TableFeatures], buckets: Seq[Array[Array[Int]]]): IndexedSeq[ServedAttr] = {
    val attrs = for ((t, ti) <- tables.zipWithIndex; a <- t.attrs) yield (t, ti, a)
    ArraySeq.from(attrs.zip(buckets).zipWithIndex.map { case (((t, ti, a), bs), id) =>
      ServedAttr(id, t.tableId, ti, a.colIdx, a.tsetSize, t.subject.contains(a.colIdx), a.sigs, bs, a.sample)
    })
  }
}
