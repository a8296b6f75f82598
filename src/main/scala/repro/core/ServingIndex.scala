package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.lsh.Banding

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
  * bucket map (evidence, band, bucket) → attributes, signatures, numeric
  * samples and subject attributes. It is assembled from Algorithm 1's
  * per-attribute records ([[AttrFeatures]]), which are built on Spark and
  * collected once, banding each signature under [[ServingIndex.levels]].
  * Queries probe it in plain Scala and start no Spark job (DESIGN.md §2,
  * "Build on Spark, serve from the driver"). The lake's embedding model is
  * not part of it: a query target is embedded with [[LakeIndexes.embeddings]].
  *
  * Attributes, tables and buckets carry dense `Int` ids, so the query path
  * dedupes and accumulates into arrays instead of hashing strings. A bucket
  * is found by its slot, a dense id of its (evidence, band), and its `Long`
  * hash. Per attribute it holds ≈228 bucket ids (60 each for ℕ/𝕍/𝔽, 48 for
  * 𝔼); its signatures (up to three 256-long MinHash ones and a 4-long 𝔼 one)
  * and its sample of at most `maxNumericSample` doubles are the arrays of
  * its [[AttrFeatures]], not copies.
  */
final class ServingIndex private (
    val attrs: IndexedSeq[ServedAttr],
    val tableIds: IndexedSeq[String],
    /** Per slot: bucket hash → bucket id. */
    bucketIds: Array[mutable.LongMap[Int]],
    /** Bucket id → ids of the attributes in it, ascending. */
    postings: Array[Array[Int]],
) {
  private val tableIndex: Map[String, Int] = tableIds.iterator.zipWithIndex.toMap

  private val byTable: Array[IndexedSeq[ServedAttr]] = {
    val g = attrs.groupBy(_.table)
    Array.tabulate(tableIds.size)(t => g.getOrElse(t, IndexedSeq.empty))
  }

  private val numericByTable: Array[Array[Int]] =
    byTable.map(_.iterator.filter(_.sample.isDefined).map(_.id).toArray)

  /** Ids of the attributes sharing bucket `b`. */
  def probe(b: Int): Array[Int] = postings(b)

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
    * each signature is banded and each band hash resolved to the bucket of
    * this index that holds it; hashes no lake attribute has are dropped.
    */
  def targets(tables: Seq[TableFeatures]): IndexedSeq[ServedAttr] =
    ServingIndex.assemble(tables)((slot, hash) => bucketIds(slot).getOrElse(hash, -1))
}

object ServingIndex {

  /** Banding levels per indexed evidence ordinal: the MinHash levels for
    * ℕ/𝕍/𝔽, the simhash levels for 𝔼.
    */
  val levels: IndexedSeq[Seq[Banding.Level]] = Evidence.indexed
    .map(e => if (e == Evidence.E) Banding.simhashLevels else Banding.minhashLevels).toIndexedSeq

  /** First slot of each indexed evidence ordinal: its bands take the slots
    * from there on, in banding order.
    */
  private val slotBase: Array[Int] = levels.scanLeft(0)(_ + _.map(_.bands).sum).toArray

  /** Serving form of the lake's extracted tables: every signature is banded
    * here, under its evidence type's levels, and every new band hash gets
    * the next bucket id.
    */
  def of(tables: Seq[TableFeatures]): ServingIndex = {
    val bucketIds = Array.fill(slotBase.last)(mutable.LongMap.empty[Int])
    var nBuckets = 0
    val attrs = assemble(tables)((slot, hash) => bucketIds(slot).getOrElseUpdate(hash, { nBuckets += 1; nBuckets - 1 }))
    val postings = Array.fill(nBuckets)(new mutable.ArrayBuilder.ofInt)
    attrs.foreach(a => a.buckets.foreach(_.foreach(b => postings(b).addOne(a.id)))) // addOne: `+=` would box the id
    new ServingIndex(attrs, tables.map(_.tableId).toIndexedSeq, bucketIds, postings.map(_.result()))
  }

  /** The attributes of `tables` in order, with dense ids from 0. Each
    * signature's band hashes go through `bucket(slot, hash)`, which gives
    * their bucket id or -1 to drop the hash.
    */
  private def assemble(tables: Seq[TableFeatures])(bucket: (Int, Long) => Int): IndexedSeq[ServedAttr] = {
    val attrs = mutable.ArrayBuffer.empty[ServedAttr]
    tables.zipWithIndex.foreach { case (t, ti) =>
      t.attrs.foreach { a =>
        val buckets = Array.tabulate(levels.size) { e =>
          val hs = Banding.hashes(a.sigs(e), levels(e))
          Array.tabulate(hs.length)(i => bucket(slotBase(e) + i, hs(i))).filter(_ >= 0)
        }
        attrs += ServedAttr(attrs.size, t.tableId, ti, a.colIdx, a.tsetSize, t.subject.contains(a.colIdx),
          a.sigs, buckets, a.sample)
      }
    }
    ArraySeq.from(attrs)
  }
}
