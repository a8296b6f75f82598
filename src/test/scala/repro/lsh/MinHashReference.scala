package repro.lsh

import scala.util.Random

/** The hash-outer loop `MinHash.signature` replaced: per hash function, the
  * minimum over the token hashes, with a separate 128-bit `mulMod` and a
  * reduction loop. It is kept as the specification of the token-outer loop
  * with the reduction inlined. The coefficients are `MinHash`'s, drawn from
  * the same seed.
  */
object MinHashReference {

  private val Prime = (1L << 61) - 1

  private val (as, bs) = {
    val rnd = new Random(0xD31L)
    val a = Array.fill(MinHash.NumHashes)(math.abs(rnd.nextLong()) % (Prime - 1) + 1)
    val b = Array.fill(MinHash.NumHashes)(math.abs(rnd.nextLong()) % Prime)
    (a, b)
  }

  def signature(tokens: Iterable[String]): Array[Long] = ofHashes(tokens.iterator.map(MinHash.tokenHash).toArray)

  /** The signature of token hashes `xs`, each below p. */
  def ofHashes(xs: Array[Long]): Array[Long] = {
    val sig = new Array[Long](MinHash.NumHashes)
    var i = 0
    while (i < MinHash.NumHashes) {
      val a = as(i)
      val b = bs(i)
      var min = MinHash.EmptySentinel
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
}
