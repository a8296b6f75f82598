package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 1 (Fig. 3): precision/recall of each individual evidence type
  * vs the aggregated D³L ranking, on Smaller Real, as the answer size grows.
  * Paper: at k=110 (avg answer) individual types reach p≈0.43–0.60 /
  * r≈0.49–0.70 (formats much weaker: p∈[0.10,0.30]); aggregation adds
  * ≈+0.10 to both.
  */
class Exp1IndividualBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 1: individual vs aggregated evidence on Smaller Real") {
    val rows = Experiments.individualEvidence(smallerReal, srD3lRanked, ks)
    banner("Experiment 1 — individual evidence P/R (Smaller Real)")
    println(Experiments.fmtPr(rows))

    val kAvg = 15
    def at(sys: String) = rows.find(r => r.system == sys && r.k == kAvg).get
    // Sanity: all metrics are valid probabilities and every evidence ran.
    rows.foreach { r =>
      assert(r.precision >= 0 && r.precision <= 1)
      assert(r.recall >= 0 && r.recall <= 1)
    }
    assert(rows.map(_.system).distinct.size == 5) // N,V,F,E + all
    // Paper shape: format alone is the weakest signal; aggregation is at
    // least as good as the strongest individual evidence (±0.05 slack).
    val best = Seq("d3l-N", "d3l-V", "d3l-E").map(s => at(s).precision).max
    assert(at("d3l-all").precision >= at("d3l-F").precision - 0.05,
      "aggregate should not trail format evidence")
    assert(at("d3l-all").precision >= best - 0.1,
      s"aggregate ${at("d3l-all").precision} should track the best individual $best")
  }
}
