package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Harness
import repro.lake.Generators

/** Shared bootstrap for the spark-submit entrypoints: one job per paper
  * table/figure (DESIGN.md §3). Usage:
  *   spark-submit --class repro.jobs.<Name> target/scala-2.13/repro_*.jar
  */
object JobSupport {

  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()

  /** Build the two effectiveness fixtures plus trained Eq. 3 weights. */
  def fixtures(spark: SparkSession): (Harness.Fixture, Harness.Fixture, Map[String, Double]) = {
    val syn = Harness.build(spark, Generators.synthetic(), nTargets = 20, seed = 101)
    val sr = Harness.build(spark, Generators.smallerReal(), nTargets = 20, seed = 102)
    val w = Harness.trainWeights(spark, syn).weights
    (syn, sr, w)
  }

  val ks: Seq[Int] = Seq(2, 5, 10, 15, 20, 25, 30, 40)
}
