package repro.stats

import repro.SparkSpec

class CcdfSpec extends SparkSpec {

  /** Weights for a batch of distances from one distribution R_t. */
  private def weights(ds: Seq[Double]): Seq[Double] = {
    val d = ds.toArray
    val w = new Array[Double](d.length)
    Ccdf.weights(d, 0, d.length, w)
    w.toSeq
  }

  test("weights preserve order: smaller distance gets larger weight") {
    val ws = weights(Seq(0.1, 0.5, 0.9))
    assert(ws(0) > ws(1) && ws(1) > ws(2))
  }

  test("midpoint adjustment keeps every weight strictly positive") {
    val ws = weights(Seq(0.2, 0.4, 0.6, 0.8, 1.0))
    assert(ws.forall(_ > 0.0))
  }

  test("single observation gets weight 0.5") {
    assert(weights(Seq(0.3)) == Seq(0.5))
  }

  test("all-equal distances share the same weight 0.5") {
    val ws = weights(Seq(0.4, 0.4, 0.4, 0.4))
    assert(ws.forall(w => math.abs(w - 0.5) < 1e-12))
  }

  test("smallest of n distinct gets (n-0.5)/n") {
    val ws = weights(Seq(0.1, 0.2, 0.3, 0.4))
    assert(math.abs(ws(0) - 3.5 / 4) < 1e-12)
  }

  test("largest of n distinct gets 0.5/n") {
    val ws = weights(Seq(0.1, 0.2, 0.3, 0.4))
    assert(math.abs(ws(3) - 0.5 / 4) < 1e-12)
  }

  test("ties share weights") {
    val ws = weights(Seq(0.2, 0.2, 0.8))
    assert(ws(0) == ws(1))
    assert(ws(0) > ws(2))
  }

  test("empty input yields empty output") {
    assert(weights(Seq.empty).isEmpty)
  }

  test("weights are within [epsilon, 1]") {
    val rnd = new scala.util.Random(3)
    val ds = Seq.fill(200)(rnd.nextDouble())
    weights(ds).foreach(w => assert(w >= Ccdf.Epsilon && w <= 1.0))
  }

  test("lowerBound/upperBound bracket equal runs") {
    val s = Array(0.1, 0.2, 0.2, 0.2, 0.5)
    assert(Ccdf.lowerBound(s, 0.2) == 1)
    assert(Ccdf.upperBound(s, 0.2) == 4)
    assert(Ccdf.lowerBound(s, 0.0) == 0)
    assert(Ccdf.upperBound(s, 0.9) == 5)
  }
}
