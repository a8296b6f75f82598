package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 10 (Fig. 8a): target coverage on Smaller Real, ±J.
  * Paper shape: both +J variants improve considerably over join-unaware
  * variants (more at larger k); TUS coverage low (≈25% of target attrs);
  * D³L covers best across the k range.
  */
class Exp10CoverageBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 10: coverage vs k on Smaller Real") {
    val rows = Experiments.coverage(smallerReal, ks, srD3l, srTus, srAurum)
    banner("Experiment 10 — mean target coverage (Smaller Real)")
    println(Experiments.fmtCov(rows, "coverage"))

    rows.foreach(r => assert(r.value >= 0 && r.value <= 1))
    def at(sys: String, k: Int) = rows.find(r => r.system == sys && r.k == k).get.value
    ks.foreach { k =>
      assert(at("d3l+j", k) >= at("d3l", k) - 1e-9)
      assert(at("aurum+j", k) >= at("aurum", k) - 1e-9)
    }
    // Paper shape: D³L covers at least as well as TUS at the avg answer size.
    assert(at("d3l", 15) >= at("tus", 15) - 0.02)
  }
}
