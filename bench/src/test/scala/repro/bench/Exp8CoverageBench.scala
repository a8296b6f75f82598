package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 8 (Fig. 7a): target coverage on Synthetic, with and without
  * join paths. Paper shape: D³L+J and Aurum+J cover most target attributes;
  * join-unaware variants decrease sharply with k; TUS covers least.
  */
class Exp8CoverageBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 8: coverage vs k on Synthetic") {
    val rows = Experiments.coverage(synthetic, ks, synD3l, synTus, synAurum)
    banner("Experiment 8 — mean target coverage (Synthetic)")
    println(Experiments.fmtCov(rows, "coverage"))

    rows.foreach(r => assert(r.value >= 0 && r.value <= 1))
    def at(sys: String, k: Int) = rows.find(r => r.system == sys && r.k == k).get.value
    // Join paths must never reduce coverage, and should add some at k≥10.
    ks.foreach { k =>
      assert(at("d3l+j", k) >= at("d3l", k) - 1e-9, s"k=$k d3l+j below d3l")
      assert(at("aurum+j", k) >= at("aurum", k) - 1e-9, s"k=$k aurum+j below aurum")
    }
    assert(at("d3l+j", 15) > at("d3l", 15), "join paths should add coverage at k=15")
  }
}
