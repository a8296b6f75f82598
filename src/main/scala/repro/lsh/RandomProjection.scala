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
  * Signatures are `Array[Long]` of 0/1 so the banding machinery is shared
  * with MinHash (wasteful in space, uniform in code). The serving index
  * holds them [[pack]]ed into 4 `Long`s and compares them by popcount.
  */
object RandomProjection {

  val NumBits = 256

  private val planes: Array[Array[Float]] = {
    val rnd = new Random(0x5157L)
    Array.fill(NumBits)(Array.fill(Embeddings.Dim)(rnd.nextGaussian().toFloat))
  }

  /** Bit signature of a dense vector; all-zero vectors yield the sentinel
    * (-1) signature that never collides.
    */
  def signature(v: Array[Float]): Array[Long] = {
    if (Embeddings.norm(v) == 0) return Array.fill(NumBits)(-1L)
    val out = new Array[Long](NumBits)
    var i = 0
    while (i < NumBits) {
      var dot = 0.0
      val p = planes(i)
      var j = 0
      while (j < Embeddings.Dim) { dot += p(j).toDouble * v(j); j += 1 }
      out(i) = if (dot >= 0) 1L else 0L
      i += 1
    }
    out
  }

  /** Estimated cosine similarity from two bit signatures. */
  def estimateCosine(a: Array[Long], b: Array[Long]): Double = {
    require(a.length == b.length, "signature length mismatch")
    if (a(0) < 0 || b(0) < 0) return 0.0
    var eq = 0; var i = 0
    while (i < a.length) { if (a(i) == b(i)) eq += 1; i += 1 }
    cosine(eq, a.length)
  }

  /** A bit signature packed 64 bits to a `Long` (bit i is bit i % 64 of
    * word i / 64); the sentinel packs to the empty array.
    */
  def pack(sig: Array[Long]): Array[Long] =
    if (sig(0) < 0) Array.emptyLongArray
    else {
      val out = new Array[Long](NumBits / 64)
      var i = 0
      while (i < NumBits) { out(i >> 6) |= sig(i) << (i & 63); i += 1 }
      out
    }

  /** [[estimateCosine]] of two [[pack]]ed signatures: the agreeing bits are
    * those not set in `a ^ b`.
    */
  def estimateCosinePacked(a: Array[Long], b: Array[Long]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    var differ = 0; var i = 0
    while (i < a.length) { differ += java.lang.Long.bitCount(a(i) ^ b(i)); i += 1 }
    cosine(NumBits - differ, NumBits)
  }

  /** cos(π(1−f)) for `eq` agreeing bits of `n`. */
  private def cosine(eq: Int, n: Int): Double = math.cos(math.Pi * (1.0 - eq.toDouble / n))
}
