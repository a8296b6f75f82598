package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 11 (Fig. 8b): attribute precision on Smaller Real, ±J.
  * Paper shape: TUS 35–45% and Aurum 20–50% correct attributes; D³L well
  * above both (format-robust features), and D³L+J never drops below D³L.
  */
class Exp11AttrPrecisionBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 11: attribute precision vs k on Smaller Real") {
    val rows = Experiments.attrPrecision(smallerReal, ks, srD3l, srTus, srAurum)
    banner("Experiment 11 — mean attribute precision (Smaller Real)")
    println(Experiments.fmtCov(rows, "attr_prec"))

    rows.foreach(r => assert(r.value >= 0 && r.value <= 1))
    def at(sys: String, k: Int) = rows.find(r => r.system == sys && r.k == k).get.value
    // Paper shape: D³L ≥ TUS on dirty data at the average answer size.
    assert(at("d3l", 15) >= at("tus", 15) - 0.02,
      s"d3l ${at("d3l", 15)} vs tus ${at("tus", 15)}")
  }
}
