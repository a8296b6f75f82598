package repro.text

import scala.util.hashing.MurmurHash3

/** Random-indexing word embeddings trained on the lake corpus (𝔼-evidence).
  *
  * Substitute for the paper's fastText model (DESIGN.md §4.1): every token is
  * assigned a deterministic ±1 *base* vector; a token's *context* embedding is
  * the sum of the base vectors of tokens it co-occurs with inside the same
  * value. Tokens that appear in similar contexts (street/road/avenue) end up
  * with high cosine similarity, which is the only property the 𝔼 index needs.
  *
  * The base vectors are pure functions of the token, so embeddings are
  * deterministic and need no shared state; the *training* (context summing)
  * happens over the corpus in `core.FeatureExtraction` with these primitives.
  */
object Embeddings {

  /** Embedding dimensionality p. 64 keeps attribute vectors cheap to shuffle
    * while leaving plenty of room for 256 random projections.
    */
  val Dim = 64

  /** Deterministic ±1 base vector of a token (seeded by its Murmur hash). */
  def baseVector(token: String): Array[Float] = {
    val out = new Array[Float](Dim)
    var h = MurmurHash3.stringHash(token, 0x9e3779b9)
    var i = 0
    while (i < Dim) {
      // xorshift PRNG seeded from the token hash — stable across JVMs.
      h ^= h << 13; h ^= h >>> 17; h ^= h << 5
      out(i) = if ((h & 1) == 0) 1.0f else -1.0f
      i += 1
    }
    out
  }

  /** In-place accumulate `src` into `acc` (both length [[Dim]]). */
  def add(acc: Array[Float], src: Array[Float]): Array[Float] = {
    var i = 0
    while (i < Dim) { acc(i) += src(i); i += 1 }
    acc
  }

  /** Mean of a collection of vectors; zero vector when empty. */
  def mean(vs: Iterable[Array[Float]]): Array[Float] = {
    val acc = new Array[Float](Dim)
    var n = 0
    vs.foreach { v => add(acc, v); n += 1 }
    if (n > 0) { var i = 0; while (i < Dim) { acc(i) /= n; i += 1 } }
    acc
  }

  def norm(v: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < v.length) { s += v(i).toDouble * v(i); i += 1 }
    math.sqrt(s)
  }
}
