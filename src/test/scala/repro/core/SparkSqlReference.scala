package repro.core

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.lsh.{MinHash, RandomProjection}
import repro.stats.KolmogorovSmirnov

/** Reference implementation of the D³L query pipeline as Spark SQL over the
  * `LakeIndexes` frames: LSH similarity join → distances → Algorithm 2 →
  * Eq. 2 windows → Eq. 1 → Eq. 3 → ranking. The served pipeline
  * (`D3L.search`) must return the same answers; `D3LEquivalenceSpec`
  * checks that it does, reading these frames into `D3L.Ranked` and
  * `D3L.Aligned` values itself rather than through `D3L.QueryResult`'s
  * frames.
  */
object SparkSqlReference {

  /** The reference's answer as Spark frames, with the columns of
    * `D3L.QueryResult`'s frames; `tablePairs` is the candidate (t_table,
    * s_table) set computed on its own, not projected from the ranking.
    */
  final case class Result(ranking: DataFrame, alignments: DataFrame, tablePairs: DataFrame) {
    def ranked: Seq[D3L.Ranked] = rankedOf(ranking)
    def aligned: Seq[D3L.Aligned] =
      alignments.select("t_table", "t_col", "s_table", "s_col", "best_dist").collect().toSeq
        .map(r => D3L.Aligned(r.getString(0), r.getInt(1), r.getString(2), r.getInt(3), r.getDouble(4)))
    def pairs: Set[(String, String)] = tablePairs.collect().map(r => (r.getString(0), r.getString(1))).toSet
  }

  /** The rows of a frame with the ranking's columns, as values. */
  def rankedOf(ranking: DataFrame): Seq[D3L.Ranked] =
    ranking.select("t_table", "s_table", "dN", "dV", "dF", "dE", "dD", "score", "rank").collect().toSeq
      .map(r => D3L.Ranked(r.getString(0), r.getString(1), ArraySeq.from((2 to 6).map(r.getDouble)),
        r.getDouble(7), r.getInt(8)))

  /** Distance from two signatures of the `signatures` frame given the
    * evidence type: Jaccard estimate for ℕ/𝕍/𝔽, cosine estimate of the 0/1
    * bits for 𝔼, both mapped to [0,1] distances. The served pipeline
    * compares packed 𝔼 bits instead, so this checks it independently.
    */
  def distance(evidence: String, a: Array[Long], b: Array[Long]): Double =
    if (evidence == Evidence.E) math.min(1.0, math.max(0.0, 1.0 - RandomProjection.estimateCosine(a, b)))
    else 1.0 - MinHash.estimateJaccard(a, b)

  private val distUdf = udf((ev: String, a: Seq[Long], b: Seq[Long]) => distance(ev, a.toArray, b.toArray))

  private val ksUdf = udf((a: Seq[Double], b: Seq[Double]) =>
    KolmogorovSmirnov.statisticSorted(a.toArray, b.toArray))

  /** The `LakeIndexes` frames the pipeline reads. */
  final case class Frames(signatures: DataFrame, buckets: DataFrame, numericProfiles: DataFrame, subjects: DataFrame)

  /** Each of `targetIds` (lake members) against the whole lake. */
  def queryAll(spark: SparkSession, idx: LakeIndexes, targetIds: Seq[String], cfg: D3LConfig): Result = {
    import spark.implicits._
    val targets = targetIds.toDF("table_id")
    val lake = Frames(idx.signatures, idx.buckets, idx.numericProfiles, idx.subjects)
    val tView = Frames(
      signatures = lake.signatures.join(targets, "table_id"),
      buckets = lake.buckets.join(targets, "table_id"),
      numericProfiles = lake.numericProfiles.join(targets, "table_id"),
      subjects = lake.subjects.join(targets, "table_id"),
    )
    queryWith(spark, tView, lake, cfg)
  }

  /** The Spark-SQL pipeline: target-side index view vs lake-side indexes. */
  def queryWith(spark: SparkSession, t: Frames, s: Frames,
                cfg: D3LConfig): Result = {
    import spark.implicits._

    val tBuckets = t.buckets.select(
      $"evidence", $"band", $"bucket", $"attr" as "t_attr", $"table_id" as "t_table")
    val sBuckets = s.buckets.select(
      $"evidence", $"band", $"bucket", $"attr" as "s_attr", $"table_id" as "s_table")

    // LSH similarity join: shared (band, bucket) membership = candidate pair.
    val collided = tBuckets.join(sBuckets, Seq("evidence", "band", "bucket"))
      .filter($"t_table" =!= $"s_table")
      .select("evidence", "t_attr", "t_table", "s_attr", "s_table")
      .distinct()

    val tSig = t.signatures.select($"attr" as "t_attr", $"evidence", $"sig" as "t_sig")
    val sSig = s.signatures.select($"attr" as "s_attr", $"evidence", $"sig" as "s_sig")
    val textPairs = collided
      .join(tSig, Seq("t_attr", "evidence"))
      .join(sSig, Seq("s_attr", "evidence"))
      .withColumn("dist", distUdf($"evidence", $"t_sig", $"s_sig"))
      .select("evidence", "t_table", "t_attr", "s_table", "s_attr", "dist")

    // ---- Algorithm 2: guarded KS distances for numeric pairs ---------------
    val tSubj = t.subjects.select($"attr" as "t_attr").withColumn("t_is_subj", lit(true))
    val sSubj = s.subjects.select($"attr" as "s_attr").withColumn("s_is_subj", lit(true))
    val saRelatedTables = textPairs
      .join(tSubj, "t_attr").join(sSubj, "s_attr")
      .select("t_table", "s_table").distinct()
      .withColumn("sa_ok", lit(true))
    val nfAttrPairs = textPairs
      .filter($"evidence".isin(Evidence.N, Evidence.F))
      .select("t_attr", "s_attr").distinct()
      .withColumn("nf_ok", lit(true))

    val candTablePairs = textPairs.select("t_table", "s_table").distinct()

    val tNum = t.numericProfiles.select(
      $"attr" as "t_attr", $"table_id" as "t_table", $"sample" as "t_sample")
    val sNum = s.numericProfiles.select(
      $"attr" as "s_attr", $"table_id" as "s_table", $"sample" as "s_sample")
    val dPairs = candTablePairs
      .join(tNum, "t_table")
      .join(sNum, "s_table")
      .join(saRelatedTables, Seq("t_table", "s_table"), "left")
      .join(nfAttrPairs, Seq("t_attr", "s_attr"), "left")
      .filter(coalesce($"sa_ok", lit(false)) || coalesce($"nf_ok", lit(false)))
      .withColumn("evidence", lit(Evidence.D))
      .withColumn("dist", ksUdf($"t_sample", $"s_sample"))
      .select("evidence", "t_table", "t_attr", "s_table", "s_attr", "dist")

    val pairs = textPairs.unionByName(dPairs)

    // ---- Eq. 2: CCDF weights over R_t per (evidence, target attribute) ----
    val wAttr = Window.partitionBy("evidence", "t_attr")
    val weighted = pairs
      .withColumn("cume", cume_dist().over(wAttr.orderBy($"dist")))
      .withColumn("n", count(lit(1)).over(wAttr))
      .withColumn("n_eq", count(lit(1)).over(Window.partitionBy("evidence", "t_attr", "dist")))
      .withColumn("w", greatest(lit(repro.stats.Ccdf.Epsilon),
        lit(1.0) - $"cume" + lit(0.5) * $"n_eq" / $"n"))

    // ---- Eq. 1: per-(table pair, evidence) weighted mean -------------------
    val eq1 = weighted
      .groupBy("t_table", "s_table", "evidence")
      .agg((sum($"w" * $"dist") / sum($"w")) as "dt")

    val dv = eq1.groupBy("t_table", "s_table")
      .pivot("evidence", Evidence.all)
      .agg(first($"dt"))
      .na.fill(1.0, Evidence.all)
      .withColumnsRenamed(Evidence.all.map(e => e -> s"d$e").toMap)

    // ---- Eq. 3: weighted Euclidean distance to the origin ------------------
    val w = cfg.evidenceWeights
    val wSum = Evidence.all.map(w).sum
    val scoreExpr = sqrt(
      Evidence.all.map(e => pow(lit(w(e)) * col(s"d$e"), 2.0)).reduce(_ + _) / lit(wSum))
    val ranking = dv
      .withColumn("score", scoreExpr)
      .withColumn("rank", row_number().over(
        Window.partitionBy("t_table").orderBy($"score".asc, $"s_table".asc)))

    // ---- attribute alignments (coverage / join-path machinery) -------------
    // An attribute pair counts as *aligned* only when some evidence distance
    // reaches the LSH threshold (dist ≤ 1−τ): the paper's LSH-Forest lookup
    // at τ=0.7 would not return weaker pairs, whereas our multi-level
    // banding deliberately surfaces them for the table ranking. Coverage and
    // attribute precision (§V-E) are defined over returned alignments, so
    // they use the thresholded set.
    // The column index follows the attribute id's last '#': table ids may hold '#'.
    val alignments = pairs
      .withColumn("t_col", substring_index($"t_attr", "#", -1).cast("int"))
      .withColumn("s_col", substring_index($"s_attr", "#", -1).cast("int"))
      .groupBy("t_table", "t_col", "s_table", "s_col")
      .agg(min($"dist") as "best_dist")
      .filter($"best_dist" <= lit(1.0) - lit(cfg.tau))

    Result(ranking, alignments, candTablePairs.select("t_table", "s_table"))
  }
}
