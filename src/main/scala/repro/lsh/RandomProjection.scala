package repro.lsh

import scala.util.Random
import repro.text.Embeddings

/** Random-projection (signed random hyperplane, Charikar '02) signatures for
  * cosine similarity — the 𝔼 index's hashing scheme.
  *
  * 256 deterministic Gaussian hyperplanes in the embedding space; bit i is
  * sign(v·r_i). P[bit agreement] = 1 − θ/π, so from the agreement fraction f
  * we recover cos(π(1−f)) as the cosine-similarity estimate.
  *
  * A signature packs its bits 64 to a `Long` ([[bit]]), so it is 4 `Long`s,
  * compared by popcount; [[Banding]] reads the bits as the rows of its
  * simhash bands.
  */
object RandomProjection {

  val NumBits = 256

  private val planes: Array[Array[Float]] = {
    val rnd = new Random(0x5157L)
    Array.fill(NumBits)(Array.fill(Embeddings.Dim)(rnd.nextGaussian().toFloat))
  }

  /** Packed bit signature of a dense vector; a zero vector has none (the
    * empty array), so it is in no bucket and estimates 0 against anything.
    */
  def signature(v: Array[Float]): Array[Long] = {
    if (Embeddings.norm(v) == 0) return Array.emptyLongArray
    val out = new Array[Long](NumBits / 64)
    var i = 0
    while (i < NumBits) {
      var dot = 0.0
      val p = planes(i)
      var j = 0
      while (j < Embeddings.Dim) { dot += p(j).toDouble * v(j); j += 1 }
      if (dot >= 0) out(i >> 6) |= 1L << (i & 63)
      i += 1
    }
    out
  }

  /** Bit i (0 or 1) of a non-empty signature: bit i % 64 of word i / 64. */
  def bit(sig: Array[Long], i: Int): Long = (sig(i >> 6) >>> (i & 63)) & 1L

  /** Estimated cosine similarity of two signatures, cos(π(1−f)) for the
    * fraction f of agreeing bits, those not set in `a ^ b`; 0 when either
    * is empty.
    */
  def estimateCosine(a: Array[Long], b: Array[Long]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    require(a.length == b.length, "signature length mismatch")
    var differ = 0; var i = 0
    while (i < a.length) { differ += java.lang.Long.bitCount(a(i) ^ b(i)); i += 1 }
    math.cos(math.Pi * (1.0 - (NumBits - differ).toDouble / NumBits))
  }
}
