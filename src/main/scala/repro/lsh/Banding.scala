package repro.lsh

import scala.util.hashing.MurmurHash3

/** Multi-resolution banded LSH over 256-component signatures — our stand-in
  * for LSH Forest (Bawa et al.), which the paper configures with τ=0.7 and
  * MinHash size 256.
  *
  * LSH Forest guarantees an answer of size k by descending hash prefixes
  * until enough candidates collide, i.e. it adaptively relaxes the effective
  * similarity threshold. A single (b=32, r=8) banding (s-curve threshold
  * ≈0.65) would silently miss the moderate-Jaccard pairs (0.2–0.5) that
  * partially-overlapping lake tables produce. We therefore index each
  * signature at several prefix granularities — (r=8,b=32), (r=4,b=16),
  * (r=2,b=8), (r=1,b=4) — matching the forest's variable-depth probing:
  * high-similarity pairs collide at deep prefixes, weaker ones at shallow
  * prefixes, and the final distance always comes from the full 256-component
  * signature, so extra candidates cost recall nothing and precision is
  * restored by D³L's distance weighting. (DESIGN.md §4.3.)
  *
  * Band ids are `level*1000 + band` so levels never share buckets.
  */
object Banding {

  /** One granularity: `bands` bands of `rows` rows over the signature prefix
    * of length `bands·rows`.
    */
  final case class Level(rows: Int, bands: Int)

  /** MinHash (ℕ/𝕍/𝔽) granularities: thresholds ≈ 0.65 / 0.50 / 0.35 / 0.25. */
  val minhashLevels: Seq[Level] = Seq(Level(8, 32), Level(4, 16), Level(2, 8), Level(1, 4))

  /** Simhash (𝔼) granularities: bit-agreement baseline is ~0.5 for random
    * vectors, so shallow 1–2 bit prefixes would collide everything; stop at
    * r=4. Under these levels a signature is a packed [[RandomProjection]]
    * signature and row i is its bit i.
    */
  val simhashLevels: Seq[Level] = Seq(Level(8, 32), Level(4, 16))

  /** Bucket keys of a signature under the given levels: (band id, bucket
    * hash), in banding order. Row i of a band is component i of a MinHash
    * signature, or bit i of a packed simhash signature ([[simhashLevels]]).
    * Empty signatures (zero vectors) and the MinHash sentinel (empty sets)
    * produce no buckets, keeping empty attributes out of every index.
    */
  def buckets(sig: Array[Long], levels: Seq[Level]): Seq[(Int, Long)] = {
    val bandIds = levels.zipWithIndex.flatMap { case (Level(_, b), li) => (0 until b).map(li * 1000 + _) }
    bandIds.zip(hashes(sig, levels))
  }

  /** (band id, bucket hash) → the ascending positions in `sigs` of the
    * signatures holding that bucket under `levels`: the probe structure of a
    * collected set of signatures.
    */
  def bucketMap(sigs: IndexedSeq[Array[Long]], levels: Seq[Level]): Map[(Int, Long), Array[Int]] =
    sigs.indices.flatMap(i => buckets(sigs(i), levels).map(_ -> i))
      .groupMap(_._1)(_._2).map { case (k, is) => k -> is.toArray }

  /** The bucket hashes of [[buckets]] alone: position p is the bucket of
    * the p-th band in banding order.
    */
  def hashes(sig: Array[Long], levels: Seq[Level]): Array[Long] = {
    val bits = levels == simhashLevels
    if (sig.isEmpty || (!bits && sig(0) == MinHash.EmptySentinel)) return Array.emptyLongArray
    val out = new Array[Long](levels.map(_.bands).sum)
    var o = 0
    levels.zipWithIndex.foreach { case (Level(r, b), li) =>
      var band = 0
      while (band < b) {
        var h = MurmurHash3.mix(0xcafe + li, band)
        var i = band * r
        val end = i + r
        while (i < end) {
          val v = if (bits) RandomProjection.bit(sig, i) else sig(i)
          h = MurmurHash3.mix(h, (v ^ (v >>> 32)).toInt)
          h = MurmurHash3.mix(h, v.toInt)
          i += 1
        }
        val hh = MurmurHash3.finalizeHash(h, r)
        out(o) = (hh.toLong << 32) | (MurmurHash3.mix(hh, band + li).toLong & 0xffffffffL)
        o += 1
        band += 1
      }
    }
    out
  }
}
