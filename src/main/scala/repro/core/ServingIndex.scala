package repro.core

import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import repro.lsh.{Banding, RandomProjection}

/** One attribute as the serving index holds it. Evidence ordinals index
  * [[Evidence.all]] (ℕ, 𝕍, 𝔽, 𝔼 are 0–3).
  */
final case class ServedAttr(
    /** Dense id: the attribute's position in its index's `attrs`. */
    id: Int,
    tableId: String,
    /** Dense id of `tableId` in its index's `tableIds`. */
    table: Int,
    colIdx: Int,
    tsetSize: Long,
    /** Predicted subject attribute of its table. */
    subject: Boolean,
    /** Signature per indexed evidence ordinal; empty when it has none. The
      * 𝔼 signature is held [[RandomProjection.pack]]ed into 4 `Long`s.
      */
    sigs: Array[Array[Long]],
    /** Bucket ids (of the index holding the attribute) per indexed evidence
      * ordinal, in banding order.
      */
    buckets: Array[Array[Int]],
    /** Sorted numeric sample (𝔻); None for non-numeric attributes. */
    sample: Option[Array[Double]],
)

/** Immutable, driver-resident probe structure of [[LakeIndexes]]: the
  * bucket map (evidence, band, bucket) → attributes, signatures, numeric
  * samples and subject attributes. The per-table features are built on
  * Spark and collected once; queries probe this structure in plain Scala
  * and start no Spark job (DESIGN.md §2, "Build on Spark, serve from the
  * driver"). The lake's embedding model is not part of it: a query target
  * is embedded with [[LakeIndexes.embeddings]].
  *
  * Attributes, tables and buckets carry dense `Int` ids, so the query path
  * dedupes and accumulates into arrays instead of hashing strings. A bucket
  * is found by its slot, a dense id of its (evidence, band), and its `Long`
  * hash. Per attribute it holds ≈228 bucket ids (60 each for ℕ/𝕍/𝔽, 48 for
  * 𝔼), up to three 256-long MinHash signatures, a 4-long 𝔼 signature and at
  * most `maxNumericSample` doubles.
  */
final class ServingIndex private (
    val attrs: IndexedSeq[ServedAttr],
    val tableIds: IndexedSeq[String],
    /** Per slot: bucket hash → bucket id. */
    bucketIds: Array[mutable.LongMap[Int]],
    /** Bucket id → its slot and its hash. */
    private val slots: Array[Int],
    private val hashes: Array[Long],
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

  /** `a`'s evidence-`e` buckets as bucket ids of this index, where `a` is an
    * attribute of `from`; buckets this index does not hold are dropped.
    */
  def bucketsOf(from: ServingIndex, a: ServedAttr, e: Int): Array[Int] =
    if (from eq this) a.buckets(e)
    else {
      val out = new mutable.ArrayBuilder.ofInt
      a.buckets(e).foreach { b =>
        val id = bucketIds(from.slots(b)).getOrElse(from.hashes(b), -1)
        if (id >= 0) out.addOne(id) // addOne: `+=` would box the id
      }
      out.result()
    }

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
}

object ServingIndex {

  private val EvE = Evidence.indexed.indexOf(Evidence.E)

  /** Banding levels per indexed evidence ordinal. */
  private val levels: IndexedSeq[Seq[Banding.Level]] = Evidence.indexed.map(FeatureExtraction.levelsOf).toIndexedSeq

  /** First slot of each indexed evidence ordinal: its bands take the slots
    * from there on, in banding order.
    */
  private val slotBase: Array[Int] = levels.scanLeft(0)(_ + _.map(_.bands).sum).toArray

  /** Serving form of extracted tables, lake or query target alike: every
    * signature is banded here, under its evidence type's levels.
    */
  def of(tables: Seq[TableFeatures]): ServingIndex = {
    val nIndexed = Evidence.indexed.size
    val bucketIds = Array.fill(slotBase(nIndexed))(mutable.LongMap.empty[Int])
    val slots = new mutable.ArrayBuilder.ofInt
    val hashes = new mutable.ArrayBuilder.ofLong
    val postings = mutable.ArrayBuffer.empty[mutable.ArrayBuilder.ofInt]
    val attrs = mutable.ArrayBuffer.empty[ServedAttr]
    tables.zipWithIndex.foreach { case (t, ti) =>
      val sigs = t.signatures.groupBy(_.attr)
      val samples = t.samples.map(s => s.attr -> s.sample).toMap
      t.profiles.foreach { p =>
        val id = attrs.size
        val bySig = Array.fill(nIndexed)(Array.emptyLongArray)
        sigs.getOrElse(p.attr, Nil).foreach(s => bySig(Evidence.all.indexOf(s.evidence)) = s.sig)
        val buckets = Array.tabulate(nIndexed) { e =>
          val hs = Banding.hashes(bySig(e), levels(e))
          Array.tabulate(hs.length) { i =>
            val slot = slotBase(e) + i
            val b = bucketIds(slot).getOrElseUpdate(hs(i),
              { slots.addOne(slot); hashes.addOne(hs(i)); postings += new mutable.ArrayBuilder.ofInt; postings.size - 1 })
            postings(b).addOne(id)
            b
          }
        }
        if (bySig(EvE).nonEmpty) bySig(EvE) = RandomProjection.pack(bySig(EvE))
        attrs += ServedAttr(id, p.tableId, ti, p.colIdx, p.tsetSize, t.subject.contains(p.colIdx),
          bySig, buckets, samples.get(p.attr))
      }
    }
    new ServingIndex(ArraySeq.from(attrs), tables.map(_.tableId).toIndexedSeq, bucketIds, slots.result(),
      hashes.result(), postings.iterator.map(_.result()).toArray)
  }
}
