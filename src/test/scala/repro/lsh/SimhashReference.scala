package repro.lsh

import scala.util.Random
import scala.util.hashing.MurmurHash3
import repro.text.Embeddings

/** Random-projection signatures held as one 0/1 `Long` per bit (a zero
  * vector gets the sentinel, 256 × −1), with their banding and cosine
  * estimate: the form that the packed signatures replaced, kept as their
  * specification. The hyperplanes are `RandomProjection`'s, drawn from the
  * same seed.
  */
object SimhashReference {

  private val NumBits = 256

  private val planes: Array[Array[Float]] = {
    val rnd = new Random(0x5157L)
    Array.fill(NumBits)(Array.fill(Embeddings.Dim)(rnd.nextGaussian().toFloat))
  }

  /** Bit i is 1 iff v·r_i ≥ 0; the zero vector gives the sentinel. */
  def signature(v: Array[Float]): Array[Long] = {
    if (Embeddings.norm(v) == 0) return Array.fill(NumBits)(-1L)
    Array.tabulate(NumBits) { i =>
      var dot = 0.0
      var j = 0
      while (j < Embeddings.Dim) { dot += planes(i)(j).toDouble * v(j); j += 1 }
      if (dot >= 0) 1L else 0L
    }
  }

  /** The 0/1 bits of a packed signature; the empty one is the sentinel. */
  def unpack(packed: Array[Long]): Array[Long] =
    if (packed.isEmpty) Array.fill(NumBits)(-1L)
    else Array.tabulate(NumBits)(i => (packed(i / 64) >>> (i % 64)) & 1L)

  def estimateCosine(a: Array[Long], b: Array[Long]): Double = {
    if (a(0) < 0 || b(0) < 0) return 0.0
    val eq = a.indices.count(i => a(i) == b(i))
    math.cos(math.Pi * (1.0 - eq.toDouble / a.length))
  }

  /** (band id, bucket hash) per band, in banding order; none for the sentinel. */
  def buckets(sig: Array[Long], levels: Seq[Banding.Level]): Seq[(Int, Long)] =
    if (sig(0) < 0) Seq.empty
    else levels.zipWithIndex.flatMap { case (Banding.Level(r, b), li) =>
      (0 until b).map { band =>
        var h = MurmurHash3.mix(0xcafe + li, band)
        (band * r until band * r + r).foreach { i =>
          val v = sig(i)
          h = MurmurHash3.mix(h, (v ^ (v >>> 32)).toInt)
          h = MurmurHash3.mix(h, v.toInt)
        }
        val hh = MurmurHash3.finalizeHash(h, r)
        (li * 1000 + band, (hh.toLong << 32) | (MurmurHash3.mix(hh, band + li).toLong & 0xffffffffL))
      }
    }
}
