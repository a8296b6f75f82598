package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.lake.{LakeDf, LakeTable}
import repro.lsh.{MinHash, RandomProjection}

/** Reference implementations of the TUS and Aurum queries as Spark SQL: TUS
  * over its `buckets`/`signatures` frames (bucket join, similarity UDF,
  * `cume_dist` windows, `row_number`), Aurum over a frame of its EKG edges.
  * The served queries (`Tus.queryAll`/`queryTable`, `Aurum.queryAll`, plain
  * Scala on the driver) must return the same answers;
  * `BaselineEquivalenceSpec` checks that they do. Answers are read from the
  * frames into the systems' typed values here.
  */
object BaselineSqlReference {

  // ---- TUS --------------------------------------------------------------------

  private val tusSimUdf = udf((m: String, a: Seq[Long], b: Seq[Long]) => {
    val aa = a.toArray; val bb = b.toArray
    m match {
      case Tus.Nl => math.max(0.0, RandomProjection.estimateCosine(aa, bb))
      case _      => MinHash.estimateJaccard(aa, bb)
    }
  })

  /** Batched TUS query with the stored signatures of `targetIds`. */
  def tusQueryAll(spark: SparkSession, idx: Tus.TusIndexes, targetIds: Seq[String]): Tus.TusResult = {
    import spark.implicits._
    val targets = targetIds.toDF("table_id")
    tusQueryWith(spark, idx.buckets.join(targets, "table_id"), idx.signatures.join(targets, "table_id"), idx,
      Set.empty)
  }

  /** Single-target TUS query: the target is indexed on its own with the
    * lake's embeddings, and `excludeId` is dropped at the probe.
    */
  def tusQueryTable(spark: SparkSession, idx: Tus.TusIndexes, target: LakeTable,
                    excludeId: Option[String]): Tus.TusResult = {
    val t = Tus.index(spark, LakeDf.toLong(spark, Seq(target)), idx.kbPath, reuseEmbeddings = Some(idx.embeddings))
    try tusQueryWith(spark, t.buckets, t.signatures, idx, excludeId.toSet)
    finally t.unpersistAll()
  }

  private def tusQueryWith(spark: SparkSession, tBuckets: DataFrame, tSignatures: DataFrame,
                           idx: Tus.TusIndexes, exclude: Set[String]): Tus.TusResult = {
    import spark.implicits._
    val tb = tBuckets.select($"measure", $"band", $"bucket", $"attr" as "t_attr", $"table_id" as "t_table")
    val sb = idx.buckets.select($"measure", $"band", $"bucket", $"attr" as "s_attr", $"table_id" as "s_table")
      .filter(!$"s_table".isin(exclude.toSeq: _*))
    val collided = tb.join(sb, Seq("measure", "band", "bucket"))
      .filter($"t_table" =!= $"s_table")
      .select("measure", "t_attr", "t_table", "s_attr", "s_table")
      .distinct()

    val tSig = tSignatures.select($"attr" as "t_attr", $"measure", $"sig" as "t_sig", $"col_idx" as "t_col")
    val sSig = idx.signatures.select($"attr" as "s_attr", $"measure", $"sig" as "s_sig", $"col_idx" as "s_col")
    val scored = collided
      .join(tSig, Seq("t_attr", "measure"))
      .join(sSig, Seq("s_attr", "measure"))
      .withColumn("sim", tusSimUdf($"measure", $"t_sig", $"s_sig"))
      .select("measure", "t_attr", "t_table", "t_col", "s_attr", "s_table", "s_col", "sim")

    val wAttr = Window.partitionBy("measure", "t_attr")
    val probs = scored
      .withColumn("prob", cume_dist().over(wAttr.orderBy($"sim")))
    val pairScore = probs.groupBy("t_table", "t_attr", "t_col", "s_table", "s_attr", "s_col")
      .agg(max($"prob") as "p")

    val perTargetAttr = pairScore.groupBy("t_table", "t_attr", "s_table")
      .agg(max($"p") as "best_p")
    val nTargetAttrs = perTargetAttr.groupBy("t_table")
      .agg(countDistinct($"t_attr") as "n_t_attrs")
    val ranking = perTargetAttr.groupBy("t_table", "s_table")
      .agg(sum($"best_p") as "align_sum")
      .join(nTargetAttrs, "t_table")
      .withColumn("score", $"align_sum" / $"n_t_attrs")
      .drop("align_sum", "n_t_attrs")
      .withColumn("rank", row_number().over(
        Window.partitionBy("t_table").orderBy($"score".desc, $"s_table".asc)))

    val alignments = pairScore
      .groupBy("t_table", "t_col", "s_table", "s_col")
      .agg(max($"p") as "best_p")

    Tus.TusResult(
      ranking.select("t_table", "s_table", "score", "rank").as[(String, String, Double, Int)].collect()
        .map { case (t, s, score, rank) => Tus.Ranked(t, s, score, rank) }.toIndexedSeq,
      alignments.select("t_table", "t_col", "s_table", "s_col", "best_p").as[(String, Int, String, Int, Double)]
        .collect().map { case (t, tc, s, sc, p) => Tus.Aligned(t, tc, s, sc, p) }.toIndexedSeq)
  }

  // ---- Aurum ------------------------------------------------------------------

  /** Aurum's query over a frame of the EKG edges: every edge incident to a
    * target attribute yields a candidate; certainty ranking.
    */
  def aurumQueryAll(spark: SparkSession, idx: Aurum.AurumIndexes, targetIds: Seq[String]): Aurum.AurumResult = {
    import spark.implicits._
    val edges = idx.edges.map(e => (e.aTable, e.aCol, e.bTable, e.bCol, e.sim))
      .toDF("a_table", "a_col", "b_table", "b_col", "sim")
    val targets = targetIds.toDF("t_table")
    val fwd = edges.select(
      $"a_table" as "t_table", $"a_col" as "t_col",
      $"b_table" as "s_table", $"b_col" as "s_col", $"sim")
    val bwd = edges.select(
      $"b_table" as "t_table", $"b_col" as "t_col",
      $"a_table" as "s_table", $"a_col" as "s_col", $"sim")
    val hits = fwd.unionByName(bwd).join(targets, "t_table")

    val alignments = hits.groupBy("t_table", "t_col", "s_table", "s_col")
      .agg(max($"sim") as "sim")
    val ranking = alignments.groupBy("t_table", "s_table")
      .agg(max($"sim") as "score", countDistinct($"t_col") as "n_cov")
      .withColumn("rank", row_number().over(
        Window.partitionBy("t_table").orderBy($"score".desc, $"n_cov".desc, $"s_table".asc)))

    Aurum.AurumResult(
      ranking.select("t_table", "s_table", "score", "n_cov", "rank").as[(String, String, Double, Long, Int)]
        .collect().map { case (t, s, score, nCov, rank) => Aurum.Ranked(t, s, score, nCov.toInt, rank) }.toIndexedSeq,
      alignments.select("t_table", "t_col", "s_table", "s_col", "sim").as[(String, Int, String, Int, Double)]
        .collect().map { case (t, tc, s, sc, sim) => Aurum.Aligned(t, tc, s, sc, sim) }.toIndexedSeq)
  }
}
