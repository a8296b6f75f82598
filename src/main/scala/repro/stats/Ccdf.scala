package repro.stats

/** Empirical complementary-CDF weights (Eq. 2).
  *
  * The paper weights each observed distance D by 1 − P(d ≤ D) over the
  * distribution R_t of all retrieved distances of that evidence type for that
  * target attribute. A literal empirical CCDF gives weight 0 to the largest
  * observation (and to a sole candidate), which would zero Eq. 1's
  * denominator; we use the midpoint-adjusted estimator
  *
  *   w(D) = ( #{d > D} + ½·#{d = D} ) / N,   clamped to [ε, 1]
  *
  * which preserves the ordering and spread of the paper's weights while
  * keeping every weight strictly positive (DESIGN.md §2, stats).
  */
object Ccdf {

  val Epsilon = 1e-3

  /** Weights of `d(from until until)`, one distribution R_t, written to the
    * same positions of `out`.
    */
  def weights(d: Array[Double], from: Int, until: Int, out: Array[Double]): Unit = {
    val n = until - from
    val sorted = java.util.Arrays.copyOfRange(d, from, until)
    java.util.Arrays.sort(sorted)
    var i = from
    while (i < until) {
      val ub = upperBound(sorted, d(i))
      val gt = n - ub
      val eq = ub - lowerBound(sorted, d(i))
      out(i) = math.max(Epsilon, (gt + 0.5 * eq) / n)
      i += 1
    }
  }

  /** First index of `sorted` with value ≥ d. */
  def lowerBound(sorted: Array[Double], d: Double): Int = {
    var lo = 0; var hi = sorted.length
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (sorted(mid) < d) lo = mid + 1 else hi = mid }
    lo
  }

  /** First index of `sorted` with value > d. */
  def upperBound(sorted: Array[Double], d: Double): Int = {
    var lo = 0; var hi = sorted.length
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (sorted(mid) <= d) lo = mid + 1 else hi = mid }
    lo
  }
}
