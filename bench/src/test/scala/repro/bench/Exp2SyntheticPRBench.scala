package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 2 (Fig. 4): comparative precision/recall on Synthetic.
  * Paper: D³L ≈1.0 precision for k≤140 falling to 0.65 at k=350; Aurum
  * precise to k≈50 then down to 0.49; TUS loses 0.2–0.3 precision to
  * high-ranked false positives; D³L recall up to +20% vs TUS, +10% vs Aurum.
  */
class Exp2SyntheticPRBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 2: comparative P/R on Synthetic") {
    val rows = Experiments.comparativePr(synthetic, ks, synD3l, synTus, synAurum)
    banner("Experiment 2 — comparative P/R (Synthetic)")
    println(Experiments.fmtPr(rows))
    println(f"[weights] trained Eq.3 weights = ${weights.toSeq.sortBy(_._1)}")
    println(f"[weights] classifier accuracy  = ${trained.trainAccuracy}%.3f (paper: ~0.89)")

    def at(sys: String, k: Int) = rows.find(r => r.system == sys && r.k == k).get
    rows.foreach(r => assert(r.precision >= 0 && r.precision <= 1 && r.recall >= 0 && r.recall <= 1))
    // Paper shape: D³L highly precise at small k on the clean benchmark…
    assert(at("d3l", 5).precision >= 0.8, s"d3l p@5 = ${at("d3l", 5).precision}")
    // …and not worse than TUS in either measure at the average answer size.
    assert(at("d3l", 15).precision >= at("tus", 15).precision - 0.02)
    assert(at("d3l", 15).recall >= at("tus", 15).recall - 0.02)
  }
}
