package repro.bench

import repro.SparkSpec
import repro.core.{D3L, Evidence}
import repro.eval.Experiments

/** Table I: example distance vectors for the Fig. 1 tables. The paper's
  * Table I shows hypothetical per-pair distances for (T, S2); we run the
  * real pipeline on the four example tables and print the Eq. 1-aggregated
  * distance vector per candidate — S2's name/value/embedding distances must
  * show relatedness (≪1) while 𝔻 stays 1 for textual pairs.
  */
class TableIBench extends SparkSpec {
  import BenchFixtures._

  test("Table I: Fig. 1 example distances") {
    val ranked = Experiments.tableIExample(spark)
    banner("Table I — Fig. 1 example, distance vectors for target T")
    println(Experiments.fmtRanked(ranked))

    def dist(r: D3L.Ranked, e: String): Double = r.dist(Evidence.all.indexOf(e))
    val s2 = ranked.find(_.sTable == "S2").getOrElse(fail("S2 must be retrieved for T"))
    // As in Table I: shared attribute names (Practice/City/Postcode) → low dN…
    assert(dist(s2, Evidence.N) < 0.7)
    // …format evidence present (postcodes, cities share formats)…
    assert(dist(s2, Evidence.F) < 1.0)
    // …and S1/S2/S3 all related to T to some degree (score < 1).
    ranked.foreach(r => assert(r.score < 1.0))
  }
}
