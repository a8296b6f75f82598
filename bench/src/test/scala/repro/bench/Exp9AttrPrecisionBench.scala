package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 9 (Fig. 7b): attribute precision on Synthetic, ±J.
  * Paper shape: D³L+J stays at 0.85–1.0 for k<260 while Aurum+J decreases
  * to ≈0.65 (uniqueness-only join paths admit more false attributes); TUS
  * is the least precise.
  */
class Exp9AttrPrecisionBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 9: attribute precision vs k on Synthetic") {
    val rows = Experiments.attrPrecision(synthetic, ks, synD3l, synTus, synAurum)
    banner("Experiment 9 — mean attribute precision (Synthetic)")
    println(Experiments.fmtCov(rows, "attr_prec"))

    rows.foreach(r => assert(r.value >= 0 && r.value <= 1))
    def at(sys: String, k: Int) = rows.find(r => r.system == sys && r.k == k).get.value
    // Paper shape: D³L+J in the 0.85–1.0 band up to the average answer size,
    // join paths never hurting precision, and D³L more attribute-precise
    // than Aurum without joins (§V-C consistency). Known deviation, recorded
    // in EXPERIMENTS.md: our Aurum+J does not decay to the paper's 0.65 —
    // on a 24-base clean lake its uniqueness joins stay mostly within-base.
    Seq(2, 5, 10, 15).foreach(k => assert(at("d3l+j", k) >= 0.8, s"d3l+j at k=$k = ${at("d3l+j", k)}"))
    Seq(2, 5, 10, 15).foreach(k => assert(at("d3l+j", k) >= at("d3l", k) - 1e-9))
    assert(at("d3l", 15) >= at("aurum", 15) - 0.02,
      s"d3l ${at("d3l", 15)} vs aurum ${at("aurum", 15)}")
    assert(at("d3l", 5) >= 0.5, s"d3l attr precision at k=5 = ${at("d3l", 5)}")
  }
}
