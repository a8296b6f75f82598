package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.lake.{LakeDf, LakeTable}
import repro.lsh.{MinHash, RandomProjection}
import repro.text.Tokenizer

/** Reference implementations of the TUS and Aurum queries as Spark SQL: TUS
  * over its `buckets`/`signatures` frames (bucket join, similarity UDF,
  * `cume_dist` windows, `row_number`), Aurum over a frame of its EKG edges;
  * and of Aurum's EKG build, as the LSH self-join over its profile frames.
  * The served queries (`Tus.queryAll`/`queryTable`, `Aurum.queryAll`, plain
  * Scala on the driver) and the driver's EKG (`Aurum.index`) must give the
  * same answers; `BaselineEquivalenceSpec` checks that they do. Answers are
  * read from the frames into the systems' typed values here.
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

  /** Aurum's EKG and PK/FK table graph as a Spark-SQL self-join over the
    * profiles of `idx` (its catalog, signatures and buckets) and the numeric
    * ranges of `lakeLong`: a bucket self-join whose collided pairs are
    * estimated with their signatures, a numeric-range `crossJoin`, the max
    * per pair; edges are the pairs at or above `Aurum.EdgeThreshold`, PK/FK
    * candidates the pairs at or above 0.15 with a unique textual side.
    */
  def aurumEkg(spark: SparkSession, idx: Aurum.AurumIndexes,
               lakeLong: DataFrame): (IndexedSeq[Aurum.Edge], Map[String, Set[String]]) = {
    import spark.implicits._
    val (catalog, buckets) = (idx.catalog, idx.buckets)
    val a = buckets.select($"measure", $"band", $"bucket", $"attr" as "a_attr", $"table_id" as "a_table")
    val b = buckets.select($"measure", $"band", $"bucket", $"attr" as "b_attr", $"table_id" as "b_table")
    val collided = a.join(b, Seq("measure", "band", "bucket"))
      .filter($"a_attr" < $"b_attr" && $"a_table" =!= $"b_table")
      .select("measure", "a_attr", "a_table", "b_attr", "b_table")
      .distinct()
    val aSig = idx.signatures.select($"attr" as "a_attr", $"measure", $"sig" as "a_sig")
    val bSig = idx.signatures.select($"attr" as "b_attr", $"measure", $"sig" as "b_sig")
    val lshEdges = collided
      .join(aSig, Seq("a_attr", "measure"))
      .join(bSig, Seq("b_attr", "measure"))
      .select("measure", "a_attr", "a_table", "b_attr", "b_table", "a_sig", "b_sig")
      .as[(String, String, String, String, String, Array[Long], Array[Long])]
      .map { case (m, aa, at, ba, bt, sa, sb) =>
        (aa, at, ba, bt, if (m == Aurum.At) math.max(0.0, RandomProjection.estimateCosine(sa, sb))
                         else MinHash.estimateJaccard(sa, sb))
      }
      .toDF("a_attr", "a_table", "b_attr", "b_table", "sim")

    val nonEmpty = $"value".isNotNull && length(trim($"value")) > 0
    val ranges = lakeLong.withColumn("attr", concat_ws("#", $"table_id", $"col_idx"))
      .filter(nonEmpty)
      .join(catalog.filter($"is_numeric").select("attr"), "attr")
      .select($"attr", $"table_id", $"value").as[(String, String, String)]
      .flatMap { case (a0, t, v) => Tokenizer.parseNumeric(v).map(d => (a0, t, d)) }
      .toDF("attr", "table_id", "num")
      .groupBy("attr", "table_id")
      .agg(min($"num") as "lo", max($"num") as "hi")
    val ra = ranges.select($"attr" as "a_attr", $"table_id" as "a_table", $"lo" as "a_lo", $"hi" as "a_hi")
    val rb = ranges.select($"attr" as "b_attr", $"table_id" as "b_table", $"lo" as "b_lo", $"hi" as "b_hi")
    val rangeEdges = ra.crossJoin(rb)
      .filter($"a_attr" < $"b_attr" && $"a_table" =!= $"b_table")
      .withColumn("ovl", least($"a_hi", $"b_hi") - greatest($"a_lo", $"b_lo"))
      .withColumn("alen", greatest($"a_hi" - $"a_lo", lit(1e-9)))
      .withColumn("blen", greatest($"b_hi" - $"b_lo", lit(1e-9)))
      .withColumn("sim", greatest(lit(0.0), $"ovl") / least($"alen", $"blen"))
      .filter($"sim" > 0)
      .withColumn("sim", least($"sim", lit(1.0)))
      .select("a_attr", "a_table", "b_attr", "b_table", "sim")

    val allEdges = lshEdges.unionByName(rangeEdges)
      .groupBy("a_attr", "a_table", "b_attr", "b_table")
      .agg(max($"sim") as "sim")
    val cols = catalog.select($"attr", $"col_idx")
    val edges = allEdges
      .filter($"sim" >= Aurum.EdgeThreshold)
      .join(cols.select($"attr" as "a_attr", $"col_idx" as "a_col"), "a_attr")
      .join(cols.select($"attr" as "b_attr", $"col_idx" as "b_col"), "b_attr")
      .select("a_attr", "a_table", "a_col", "b_attr", "b_table", "b_col", "sim")
      .as[(String, String, Int, String, String, Int, Double)].collect()
      .map { case (aa, at, ac, ba, bt, bc, s) => Aurum.Edge(aa, at, ac, ba, bt, bc, s) }

    val uniq = catalog.filter($"uniqueness" >= 0.85 && !$"is_numeric")
      .select($"attr").withColumn("u", lit(true))
    val pkfk = allEdges
      .join(uniq.select($"attr" as "a_attr", $"u" as "a_u"), Seq("a_attr"), "left")
      .join(uniq.select($"attr" as "b_attr", $"u" as "b_u"), Seq("b_attr"), "left")
      .filter(coalesce($"a_u", lit(false)) || coalesce($"b_u", lit(false)))
      .filter($"sim" >= 0.15)
      .select("a_table", "b_table").distinct()
      .as[(String, String)].collect()
    val pkfkAdj = scala.collection.mutable.Map.empty[String, Set[String]].withDefaultValue(Set.empty)
    pkfk.foreach { case (x, y) => pkfkAdj(x) += y; pkfkAdj(y) += x }
    (edges.toIndexedSeq, pkfkAdj.toMap)
  }

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
