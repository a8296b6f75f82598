package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 6 (Fig. 6c): search time vs answer size on Smaller Real.
  * Paper shape: D³L still ahead of TUS but the gap shrinks — Smaller Real
  * has more numeric attributes (D³L spends KS time on them, TUS ignores
  * them) and fewer tables. Aurum's constant EKG query time: 18.37 s on the
  * paper's setup.
  */
class Exp6SearchTimeBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 6: search time vs k on Smaller Real") {
    val searchKs = Seq(5, 15, 30)
    val (rows, aurumConst) = Experiments.searchTimes(spark, smallerReal, searchKs, nTargets = 3)
    banner("Experiment 6 — per-query search time (s) vs k (Smaller Real)")
    println(f"${"system"}%-8s ${"k"}%5s ${"seconds"}%9s")
    rows.foreach(r => println(f"${r.system}%-8s ${r.x}%5d ${r.seconds}%9.3f"))
    println(f"aurum constant EKG query time: $aurumConst%9.6f s (paper: 18.37 s)")

    rows.foreach(r => assert(r.seconds > 0))
    // Gap-shrink shape: D³L's advantage over TUS here should be smaller than
    // (or comparable to) its advantage on Synthetic; assert it stays ≤ TUS×1.5.
    searchKs.foreach { k =>
      val d3l = rows.find(r => r.system == "d3l" && r.x == k).get.seconds
      val tus = rows.find(r => r.system == "tus" && r.x == k).get.seconds
      assert(d3l <= tus * 1.5, s"at k=$k d3l=$d3l vs tus=$tus")
    }
  }
}
