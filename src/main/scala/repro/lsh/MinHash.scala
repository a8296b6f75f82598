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
    val xs = tokens.iterator.map(tokenHash).toArray
    val sig = new Array[Long](NumHashes)
    var i = 0
    while (i < NumHashes) {
      val a = as(i)
      val b = bs(i)
      var min = EmptySentinel
      var j = 0
      while (j < xs.length) {
        // (a*x + b) mod p; a*x overflows 64 bits, hence the 128-bit mulMod.
        val v = mulMod(a, xs(j)) + b
        val hv = if (v >= Prime) v - Prime else v
        if (hv < min) min = hv
        j += 1
      }
      sig(i) = min
      i += 1
    }
    sig
  }

  /** (a*b) mod p for p = 2⁶¹−1 using 128-bit multiply via Math.multiplyHigh. */
  private def mulMod(a: Long, b: Long): Long = {
    val hi = Math.multiplyHigh(a, b)
    val lo = a * b
    // Reduce mod 2^61-1: value = hi·2^64 + lo_unsigned and 2^61 ≡ 1 (mod p),
    // so a·b ≡ (hi·8) + (lo >>> 61) + (lo & p) (mod p). One fold brings the
    // sum under 2^61+2; finish with conditional subtraction.
    var res = (lo & Prime) + (lo >>> 61) + (hi << 3)
    res = (res & Prime) + (res >>> 61)
    while (res >= Prime) res -= Prime
    res
  }

  /** Estimated Jaccard similarity = fraction of agreeing components. */
  def estimateJaccard(a: Array[Long], b: Array[Long]): Double = {
    require(a.length == b.length, "signature length mismatch")
    var eq = 0; var i = 0
    while (i < a.length) { if (a(i) == b(i) && a(i) != EmptySentinel) eq += 1; i += 1 }
    eq.toDouble / a.length
  }
}
