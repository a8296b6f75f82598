package repro.bench

import repro.SparkSpec
import repro.core.D3L
import repro.eval.Harness
import repro.lake.Generators

/** Lazily-built shared fixtures for the bench suites: each lake is generated
  * and indexed once per JVM (Test/parallelExecution := false keeps one JVM
  * for the whole bench run), and each system's batched query runs once.
  *
  * Scaled-down stand-ins for the paper's repositories (DESIGN.md §2):
  *   Synthetic    ~5,000 tables → 384 (24 bases × 16 derived, clean)
  *   Smaller Real ~700 tables   → 120 (8 clusters × 15, dirty)
  * k sweeps scale accordingly: the paper's average answer sizes are 260/110,
  * ours ≈ 14/14, so ks span 2…40 (≈0.15×…2.9× the average answer size,
  * matching the paper's 5…350 / 10…110 relative ranges).
  */
object BenchFixtures {

  lazy val spark = SparkSpec.shared

  val ks: Seq[Int] = Seq(2, 5, 10, 15, 20, 25, 30, 40)

  lazy val synthetic: Harness.Fixture =
    Harness.build(spark, Generators.synthetic(), nTargets = 20, seed = 101)

  lazy val smallerReal: Harness.Fixture =
    Harness.build(spark, Generators.smallerReal(), nTargets = 20, seed = 102)

  /** Eq. 3 weights trained on the Synthetic fixture (as in the paper, which
    * trains on the TUS benchmark and evaluates everywhere).
    */
  lazy val trained = Harness.trainWeights(spark, synthetic)
  lazy val weights: Map[String, Double] = trained.weights

  lazy val synD3l: Harness.SystemRun = Harness.runD3L(spark, synthetic, Some(weights))
  lazy val synTus: Harness.SystemRun = Harness.runTus(synthetic)
  lazy val synAurum: Harness.SystemRun = Harness.runAurum(synthetic)

  lazy val srD3l: Harness.SystemRun = Harness.runD3L(spark, smallerReal, Some(weights))
  /** D³L's typed ranking behind [[srD3l]] (Experiment 1 re-ranks it). */
  lazy val srD3lRanked: Seq[D3L.Ranked] = Harness.queryD3L(spark, smallerReal, Some(weights)).ranked
  lazy val srTus: Harness.SystemRun = Harness.runTus(smallerReal)
  lazy val srAurum: Harness.SystemRun = Harness.runAurum(smallerReal)

  def banner(title: String): Unit =
    println(s"\n==== $title ====")
}
