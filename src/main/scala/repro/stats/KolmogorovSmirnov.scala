package repro.stats

/** Exact two-sample Kolmogorov–Smirnov statistic (𝔻-evidence, §III-C).
  *
  * KS(A, B) = sup_x |F_A(x) − F_B(x)| over the empirical CDFs of the two
  * extents. Bounded by [0, 1]; 0 ⇔ identical empirical distributions. The
  * paper uses KS directly as the distance D_𝔻, with no LSH approximation.
  */
object KolmogorovSmirnov {

  /** KS statistic over two *sorted* samples (merge-walk, O(n+m)). Empty
    * samples are maximally distant (1.0) — no evidence, no similarity.
    */
  def statisticSorted(a: Array[Double], b: Array[Double]): Double = {
    val n = a.length; val m = b.length
    if (n == 0 || m == 0) return 1.0
    var i = 0; var j = 0
    var d = 0.0
    while (i < n && j < m) {
      val x = math.min(a(i), b(j))
      while (i < n && a(i) <= x) i += 1
      while (j < m && b(j) <= x) j += 1
      val diff = math.abs(i.toDouble / n - j.toDouble / m)
      if (diff > d) d = diff
    }
    d
  }
}
