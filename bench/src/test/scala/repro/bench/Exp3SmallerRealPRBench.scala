package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 3 (Fig. 5): comparative precision/recall on Smaller Real.
  * Paper: dirt widens the gap — D³L precision +0.2…0.4 over TUS and
  * +0.05…0.3 over Aurum for k≤110; recall ≈0.70 vs ≈0.55 for both baselines
  * at k=110.
  */
class Exp3SmallerRealPRBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 3: comparative P/R on Smaller Real") {
    val rows = Experiments.comparativePr(smallerReal, ks, srD3l, srTus, srAurum)
    banner("Experiment 3 — comparative P/R (Smaller Real)")
    println(Experiments.fmtPr(rows))

    def at(sys: String, k: Int) = rows.find(r => r.system == sys && r.k == k).get
    rows.foreach(r => assert(r.precision >= 0 && r.precision <= 1 && r.recall >= 0 && r.recall <= 1))
    // Paper shape: on dirty data D³L beats the value-equality baselines.
    assert(at("d3l", 15).precision >= at("tus", 15).precision,
      s"d3l ${at("d3l", 15).precision} vs tus ${at("tus", 15).precision}")
    assert(at("d3l", 15).recall >= at("tus", 15).recall - 0.02)
  }
}
