package repro.stats

import repro.SparkSpec

class KolmogorovSmirnovSpec extends SparkSpec {

  test("identical samples have KS 0") {
    val a = Array(1.0, 2.0, 3.0, 4.0)
    assert(KolmogorovSmirnov.statisticSorted(a, a) == 0.0)
  }

  test("completely separated samples have KS 1") {
    val a = Array(1.0, 2.0, 3.0)
    val b = Array(10.0, 11.0, 12.0)
    assert(KolmogorovSmirnov.statisticSorted(a, b) == 1.0)
  }

  test("empty samples are maximally distant") {
    assert(KolmogorovSmirnov.statisticSorted(Array.empty, Array(1.0)) == 1.0)
    assert(KolmogorovSmirnov.statisticSorted(Array(1.0), Array.empty) == 1.0)
    assert(KolmogorovSmirnov.statisticSorted(Array.empty, Array.empty) == 1.0)
  }

  test("known textbook example") {
    // A = {1,2,3,4}, B = {3,4,5,6}: max |F_A - F_B| at x∈[2,3): |2/4-0| = 0.5
    val d = KolmogorovSmirnov.statisticSorted(Array(1.0, 2.0, 3.0, 4.0), Array(3.0, 4.0, 5.0, 6.0))
    assert(math.abs(d - 0.5) < 1e-12)
  }

  test("statistic is symmetric") {
    val a = Array(1.0, 5.0, 9.0)
    val b = Array(2.0, 3.0, 8.0, 12.0)
    assert(KolmogorovSmirnov.statisticSorted(a, b) == KolmogorovSmirnov.statisticSorted(b, a))
  }

  test("statistic handles ties across samples") {
    val a = Array(1.0, 1.0, 2.0)
    val b = Array(1.0, 2.0, 2.0)
    val d = KolmogorovSmirnov.statisticSorted(a, b)
    assert(d > 0.0 && d < 1.0)
  }

  test("same distribution, different draws → small KS") {
    val rnd = new scala.util.Random(5)
    val a = Array.fill(400)(rnd.nextGaussian() * 10 + 50).sorted
    val b = Array.fill(400)(rnd.nextGaussian() * 10 + 50).sorted
    assert(KolmogorovSmirnov.statisticSorted(a, b) < 0.15)
  }

  test("shifted distributions → large KS") {
    val rnd = new scala.util.Random(6)
    val a = Array.fill(400)(rnd.nextGaussian() * 10 + 50).sorted
    val b = Array.fill(400)(rnd.nextGaussian() * 10 + 120).sorted
    assert(KolmogorovSmirnov.statisticSorted(a, b) > 0.9)
  }

  test("different spread, same mean → intermediate KS") {
    val rnd = new scala.util.Random(7)
    val a = Array.fill(500)(rnd.nextGaussian() * 1 + 50).sorted
    val b = Array.fill(500)(rnd.nextGaussian() * 20 + 50).sorted
    val d = KolmogorovSmirnov.statisticSorted(a, b)
    assert(d > 0.2 && d < 0.9, s"d=$d")
  }

  test("statistic bounded in [0,1] for random inputs") {
    val rnd = new scala.util.Random(8)
    (1 to 50).foreach { _ =>
      val a = Array.fill(1 + rnd.nextInt(30))(rnd.nextDouble() * 100).sorted
      val b = Array.fill(1 + rnd.nextInt(30))(rnd.nextDouble() * 100).sorted
      val d = KolmogorovSmirnov.statisticSorted(a, b)
      assert(d >= 0.0 && d <= 1.0)
    }
  }

  test("singleton vs singleton") {
    assert(KolmogorovSmirnov.statisticSorted(Array(1.0), Array(1.0)) == 0.0)
    assert(KolmogorovSmirnov.statisticSorted(Array(1.0), Array(2.0)) == 1.0)
  }
}
