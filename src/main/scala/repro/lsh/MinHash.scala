package repro.lsh

import scala.util.Random
import scala.util.hashing.MurmurHash3

/** MinHash signatures (Broder '97) over string-token sets.
  *
  * 256 universal-hash "permutations" h_i(x) = (a_i·x + b_i) mod p with
  * p = 2⁶¹−1 (Mersenne prime). The collision probability of one component of
  * two signatures equals the Jaccard similarity of the underlying sets, so the
  * fraction of agreeing components is an unbiased Jaccard estimator — this is
  * what the D³L indexes return as the distance measurement.
  *
  * A signature is built token by token, each token's hash lowering the 256
  * running minima ([[include]]).
  */
object MinHash {

  val NumHashes = 256
  private val Prime = (1L << 61) - 1
  val EmptySentinel: Long = Long.MaxValue

  // Deterministic coefficients: the whole repo must agree on one family so
  // signatures computed in different jobs remain comparable.
  private val (as, bs) = {
    val rnd = new Random(0xD31L)
    val a = Array.fill(NumHashes)(math.abs(rnd.nextLong()) % (Prime - 1) + 1)
    val b = Array.fill(NumHashes)(math.abs(rnd.nextLong()) % Prime)
    (a, b)
  }

  /** Stable 64-bit non-negative hash of a token. */
  def tokenHash(t: String): Long = {
    val h1 = MurmurHash3.stringHash(t, 0x1234567)
    val h2 = MurmurHash3.stringHash(t, 0x89abcdf)
    val h = (h1.toLong << 32) | (h2.toLong & 0xffffffffL)
    (h & Long.MaxValue) % Prime
  }

  /** Signature of a token set. Empty sets get the sentinel signature, which
    * never collides with a real one (callers exclude empty attrs anyway).
    */
  def signature(tokens: Iterable[String]): Array[Long] = {
    val sig = Array.fill(NumHashes)(EmptySentinel)
    tokens.foreach(t => include(sig, tokenHash(t)))
    sig
  }

  /** Lowers each component i of `sig` to h_i(x) = (a_i·x + b_i) mod p where smaller, for a token hash x < p. */
  private[lsh] def include(sig: Array[Long], x: Long): Unit = {
    var i = 0
    while (i < NumHashes) {
      // a·x overflows 64 bits: with hi·2^64 + lo = a·x and 2^61 ≡ 1 (mod p),
      // a·x ≡ 8·hi + (lo >>> 61) + (lo & p). Fold twice, add b, fold once
      // more: the value is ≤ p+2 after two folds and ≤ p+1 after the third,
      // so one subtraction of p gives the canonical residue.
      val a = as(i)
      val lo = a * x
      var v = (lo & Prime) + (lo >>> 61) + (Math.multiplyHigh(a, x) << 3)
      v = (v & Prime) + (v >>> 61)
      v += bs(i)
      v = (v & Prime) + (v >>> 61)
      if (v >= Prime) v -= Prime
      if (v < sig(i)) sig(i) = v
      i += 1
    }
  }

  /** Estimated Jaccard similarity = fraction of agreeing components. */
  def estimateJaccard(a: Array[Long], b: Array[Long]): Double = {
    require(a.length == b.length, "signature length mismatch")
    var eq = 0; var i = 0
    while (i < a.length) { if (a(i) == b(i) && a(i) != EmptySentinel) eq += 1; i += 1 }
    eq.toDouble / a.length
  }
}
