package repro.bench

import repro.SparkSpec
import repro.eval.Experiments

/** Experiment 5 (Fig. 6b): search time vs answer size on Synthetic, plus
  * Aurum's constant EKG query time, `Aurum.queryAll` of one target (paper:
  * 22.42 s avg on their setup).
  * Paper shape: D³L ≪ TUS at every k (TUS re-maps target tokens through
  * YAGO per query). Note: our banded-LSH emulation of LSH Forest makes D³L
  * time ~flat in k (recorded in EXPERIMENTS.md as a substitution effect).
  */
class Exp5SearchTimeBench extends SparkSpec {
  import BenchFixtures._

  test("Experiment 5: search time vs k on Synthetic") {
    val searchKs = Seq(5, 15, 30)
    val (rows, aurumConst) = Experiments.searchTimes(spark, synthetic, searchKs, nTargets = 3)
    banner("Experiment 5 — per-query search time (s) vs k (Synthetic)")
    println(f"${"system"}%-8s ${"k"}%5s ${"seconds"}%9s")
    rows.foreach(r => println(f"${r.system}%-8s ${r.x}%5d ${r.seconds}%9.3f"))
    println(f"aurum constant EKG query time: $aurumConst%9.6f s (paper: 22.42 s)")

    rows.foreach(r => assert(r.seconds > 0))
    searchKs.foreach { k =>
      val d3l = rows.find(r => r.system == "d3l" && r.x == k).get.seconds
      val tus = rows.find(r => r.system == "tus" && r.x == k).get.seconds
      assert(d3l <= tus * 1.2, s"at k=$k d3l=$d3l should not exceed tus=$tus")
    }
    assert(aurumConst < 1.0, "in-memory EKG query should be sub-second")
  }
}
