package repro.lsh

import scala.collection.mutable

/** The banded LSH index that D³L, TUS and Aurum probe: items 0 until n, each
  * with one signature per group (an evidence type or a measure), every group
  * banded under its own levels. Empty signatures and the MinHash sentinel
  * fall in no bucket ([[Banding.hashes]]).
  *
  * A bucket is keyed by its group, band and band hash, and has a dense `Int`
  * id, given in build order (item, group, band): each new key takes the next
  * one. Its postings are the ascending ids of its items, so a probe dedupes
  * into a stamp array.
  */
final class BucketIndex private (
    val levels: IndexedSeq[Seq[Banding.Level]],
    bucketIds: IndexedSeq[Array[mutable.LongMap[Int]]], // per group and band: band hash → bucket id
    itemBuckets: Array[Array[Array[Int]]],
    postings: Array[Array[Int]],
) {
  private val packed = levels.map(_ == Banding.simhashLevels).toArray

  /** Estimated similarity of two signatures of group `g`: max(0, cosine) if packed, else Jaccard. */
  def similarity(g: Int, a: Array[Long], b: Array[Long]): Double =
    if (packed(g)) math.max(0.0, RandomProjection.estimateCosine(a, b)) else MinHash.estimateJaccard(a, b)

  /** Ids of the buckets holding item `i`, per group, in banding order. */
  def bucketsOf(i: Int): Array[Array[Int]] = itemBuckets(i)

  /** Ids of the items in bucket `b`, ascending. */
  def probe(b: Int): Array[Int] = postings(b)

  /** Ids of the buckets holding a foreign signature of group `g`, in banding order; unknown hashes are dropped. */
  def resolve(g: Int, sig: Array[Long]): Array[Int] = {
    val hs = Banding.hashes(sig, levels(g))
    Array.tabulate(hs.length)(j => bucketIds(g)(j).getOrElse(hs(j), -1)).filter(_ >= 0)
  }

  /** Calls `f` once per item in one of `buckets`, in probe order. An item
    * is met when `seen(item) == mark` and marked when first met, so each
    * walk over a `seen` array needs a mark that no earlier one used.
    */
  def candidates(buckets: Array[Int], seen: Array[Int], mark: Int)(f: Int => Unit): Unit = {
    var j = 0
    while (j < buckets.length) {
      val post = postings(buckets(j))
      var i = 0
      while (i < post.length) { val s = post(i); if (seen(s) != mark) { seen(s) = mark; f(s) }; i += 1 }
      j += 1
    }
  }
}

object BucketIndex {

  /** Banding levels of `groups`: the simhash ones for the packed group `simhash`, the MinHash ones for the others. */
  def levels(groups: Seq[String], simhash: String): IndexedSeq[Seq[Banding.Level]] =
    groups.map(g => if (g == simhash) Banding.simhashLevels else Banding.minhashLevels).toIndexedSeq

  /** The index of items 0 until `n`, item i's signature of group g being `sig(i, g)`. */
  def apply(levels: IndexedSeq[Seq[Banding.Level]], n: Int)(sig: (Int, Int) => Array[Long]): BucketIndex = {
    val bucketIds = levels.map(l => Array.fill(l.map(_.bands).sum)(mutable.LongMap.empty[Int]))
    var nBuckets = 0
    val itemBuckets = Array.tabulate(n, levels.size) { (i, g) =>
      val hs = Banding.hashes(sig(i, g), levels(g))
      Array.tabulate(hs.length)(j => bucketIds(g)(j).getOrElseUpdate(hs(j), { nBuckets += 1; nBuckets - 1 }))
    }
    val postings = Array.fill(nBuckets)(new mutable.ArrayBuilder.ofInt)
    itemBuckets.indices.foreach(i => itemBuckets(i).foreach(_.foreach(b => postings(b).addOne(i)))) // addOne: no boxing
    new BucketIndex(levels, bucketIds, itemBuckets, postings.map(_.result()))
  }
}
