package repro.jobs

import repro.eval.{Experiments, Harness}

/** Experiment 1 (Fig. 3): individual vs aggregated evidence, Smaller Real. */
object Exp1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("exp1-individual-evidence")
    val (syn, sr, w) = JobSupport.fixtures(spark)
    println(Experiments.fmtPr(
      Experiments.individualEvidence(sr, Harness.queryD3L(spark, sr, Some(w)).ranked, JobSupport.ks)))
    spark.stop()
  }
}

/** Experiment 2 (Fig. 4): comparative P/R on Synthetic. */
object Exp2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("exp2-synthetic-pr")
    val (syn, _, w) = JobSupport.fixtures(spark)
    val rows = Experiments.comparativePr(syn, JobSupport.ks,
      Harness.runD3L(spark, syn, Some(w)), Harness.runTus(syn), Harness.runAurum(syn))
    println(Experiments.fmtPr(rows))
    spark.stop()
  }
}

/** Experiment 3 (Fig. 5): comparative P/R on Smaller Real. */
object Exp3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("exp3-smaller-real-pr")
    val (_, sr, w) = JobSupport.fixtures(spark)
    val rows = Experiments.comparativePr(sr, JobSupport.ks,
      Harness.runD3L(spark, sr, Some(w)), Harness.runTus(sr), Harness.runAurum(sr))
    println(Experiments.fmtPr(rows))
    spark.stop()
  }
}

/** Fig. 2: repository statistics. */
object RepoStatsJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("repo-stats")
    import repro.lake.Generators
    val rows = Experiments.repoStats(Generators.synthetic()) ++
      Experiments.repoStats(Generators.smallerReal())
    rows.foreach(r => println(f"${r.repo}%-14s ${r.metric}%-12s ${r.p25}%8.1f ${r.median}%8.1f ${r.p75}%8.1f ${r.max}%8.1f"))
    spark.stop()
  }
}

/** Table I: Fig. 1 example distance vectors. */
object TableIJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("table1-example")
    println(Experiments.fmtRanked(Experiments.tableIExample(spark)))
    spark.stop()
  }
}
