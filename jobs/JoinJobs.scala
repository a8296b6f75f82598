package repro.jobs

import repro.eval.{Experiments, Harness}

/** Experiments 8/9 (Fig. 7): coverage and attribute precision on Synthetic. */
object Exp8Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("exp8-coverage-synthetic")
    val (syn, _, w) = JobSupport.fixtures(spark)
    val d3l = Harness.runD3L(spark, syn, Some(w))
    val rows = Experiments.coverage(syn, JobSupport.ks, d3l,
      Harness.runTus(syn), Harness.runAurum(syn))
    println(Experiments.fmtCov(rows, "coverage"))
    spark.stop()
  }
}

object Exp9Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("exp9-attr-precision-synthetic")
    val (syn, _, w) = JobSupport.fixtures(spark)
    val d3l = Harness.runD3L(spark, syn, Some(w))
    val rows = Experiments.attrPrecision(syn, JobSupport.ks, d3l,
      Harness.runTus(syn), Harness.runAurum(syn))
    println(Experiments.fmtCov(rows, "attr_prec"))
    spark.stop()
  }
}

/** Experiments 10/11 (Fig. 8): coverage and attribute precision, Smaller Real. */
object Exp10Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("exp10-coverage-smaller-real")
    val (_, sr, w) = JobSupport.fixtures(spark)
    val d3l = Harness.runD3L(spark, sr, Some(w))
    val rows = Experiments.coverage(sr, JobSupport.ks, d3l,
      Harness.runTus(sr), Harness.runAurum(sr))
    println(Experiments.fmtCov(rows, "coverage"))
    spark.stop()
  }
}

object Exp11Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSupport.session("exp11-attr-precision-smaller-real")
    val (_, sr, w) = JobSupport.fixtures(spark)
    val d3l = Harness.runD3L(spark, sr, Some(w))
    val rows = Experiments.attrPrecision(sr, JobSupport.ks, d3l,
      Harness.runTus(sr), Harness.runAurum(sr))
    println(Experiments.fmtCov(rows, "attr_prec"))
    spark.stop()
  }
}
