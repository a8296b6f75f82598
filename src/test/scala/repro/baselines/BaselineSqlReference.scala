package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import scala.jdk.CollectionConverters._
import repro.lake.{LakeDf, LakeTable}
import repro.core.{D3LConfig, FeatureExtraction}
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.text.{Embeddings, Tokenizer}

/** Reference implementations of the TUS and Aurum queries as Spark SQL: TUS
  * over its `buckets`/`signatures` frames (bucket join, similarity UDF,
  * `cume_dist` windows, `row_number`), Aurum over a frame of its EKG edges;
  * and of both builds: TUS's and Aurum's profiling as Spark-SQL aggregations
  * and joins over the long lake, Aurum's EKG as the LSH self-join over its
  * profiles. The served queries (`Tus.queryAll`/`queryTable`,
  * `Aurum.queryAll`, plain Scala on the driver) and the kernels and driver
  * EKG (`Tus.index`, `Aurum.index`) must give the same answers;
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

  /** TUS's profiles as Spark-SQL frames with the schemas of
    * `Tus.TusIndexes`' `catalog`, `signatures` and `buckets`, and the token
    * → vector model the NL signatures were built with.
    */
  final case class TusProfiles(catalog: DataFrame, signatures: DataFrame, buckets: DataFrame,
                               embeddings: Map[String, Array[Float]])

  /** TUS's build of a long lake in Spark SQL: a `first(col_name)` catalog
    * with a numeric UDF over `concat_ws` attribute ids; the textual values
    * joined to their tokens and made `distinct`; SET hashed per attribute
    * (`groupByKey`/`mapGroups`); the distinct tokens mapped through the KB
    * per partition and joined back for SEM, minus the classes of more than
    * 20% of the attributes with a token; NL as the mean of the tokens'
    * vectors, joined with the model (`reuseEmbeddings`, or one trained on
    * the textual values). The catalog and signatures are collected into
    * local frames, so every reader sees one evaluation of them.
    */
  def tusProfiles(spark: SparkSession, lakeLong: DataFrame, kbPath: String,
                  reuseEmbeddings: Option[Map[String, Array[Float]]] = None): TusProfiles = {
    import spark.implicits._
    def local(df: DataFrame) = spark.createDataFrame(df.collect().toSeq.asJava, df.schema)
    val lake = lakeLong.withColumn("attr", concat_ws("#", $"table_id", $"col_idx"))
    val nonEmpty = $"value".isNotNull && length(trim($"value")) > 0
    val isNumUdf = udf((v: String) => Tokenizer.isNumericValue(v))
    val catalog = local(lake.groupBy($"attr", $"table_id", $"col_idx")
      .agg(
        first($"col_name") as "col_name",
        sum(when(nonEmpty, 1L).otherwise(0L)) as "n_values",
        sum(when(nonEmpty && isNumUdf($"value"), 1L).otherwise(0L)) as "n_numeric")
      .withColumn("is_numeric", $"n_values" > 0 && $"n_numeric" >= lit(D3LConfig().numericFrac) * $"n_values"))

    val values = lake.filter(nonEmpty)
      .select($"attr", $"value")
      .join(catalog.filter(!$"is_numeric").select("attr"), "attr")
      .as[(String, String)]
      .map { case (attr, v) => (attr, Tokenizer.partWords(v).flatten) }
    val attrTokens = values.flatMap { case (attr, ws) => ws.map(w => (attr, w)) }
      .toDF("attr", "token").distinct()

    val sigSet = attrTokens.as[(String, String)].groupByKey(_._1)
      .mapGroups { (a, it) => (a, Tus.Set_, MinHash.signature(it.map(_._2).toSeq)) }

    val classes = attrTokens.select("token").distinct().as[String]
      .mapPartitions(SyntheticKB.mapTokens(_, kbPath).iterator).toDF("token", "cls")
    val attrClasses = attrTokens.join(classes, Seq("token")).select("attr", "cls").distinct()
    val nTextualAttrs = math.max(1L, attrTokens.select("attr").distinct().count())
    val commonClasses = attrClasses.groupBy("cls")
      .agg(count(lit(1)) as "df")
      .filter($"df" > lit(0.2) * nTextualAttrs)
      .select("cls")
    val sigSem = attrClasses.join(commonClasses, Seq("cls"), "left_anti")
      .select("attr", "cls")
      .as[(String, String)].groupByKey(_._1)
      .mapGroups { (a, it) => (a, Tus.Sem, MinHash.signature(it.map(_._2).toSeq)) }

    val embeddings = reuseEmbeddings.getOrElse(FeatureExtraction.trainEmbeddings(values.rdd.map(_._2)))
    val sigNl = attrTokens.join(embeddings.toSeq.toDF("token", "vec"), Seq("token"))
      .select($"attr", $"vec").as[(String, Array[Float])]
      .groupByKey(_._1)
      .mapGroups { (a, it) => (a, Tus.Nl, RandomProjection.signature(Embeddings.mean(it.map(_._2).toSeq))) }

    val signatures = local(sigSet.union(sigSem).union(sigNl)
      .toDF("attr", "measure", "sig")
      .join(catalog.select("attr", "table_id", "col_idx"), "attr"))
    val buckets = signatures
      .select($"attr", $"table_id", $"measure", $"sig").as[(String, String, String, Array[Long])]
      .flatMap { case (attr, tid, m, sig) =>
        val levels = if (m == Tus.Nl) Banding.simhashLevels else Banding.minhashLevels
        Banding.buckets(sig, levels).map { case (band, bucket) => (m, band, bucket, attr, tid) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")
    TusProfiles(catalog, signatures, buckets, embeddings)
  }

  /** Batched TUS query over the lake's profiles `p` (of [[tusProfiles]]),
    * with the stored signatures of `targetIds`.
    */
  def tusQueryAll(spark: SparkSession, p: TusProfiles, targetIds: Seq[String]): Tus.TusResult = {
    import spark.implicits._
    val targets = targetIds.toDF("table_id")
    tusQueryWith(spark, p.buckets.join(targets, "table_id"), p.signatures.join(targets, "table_id"), p, Set.empty)
  }

  /** Single-target TUS query: the target is profiled on its own by
    * [[tusProfiles]] with the lake's embeddings, and `excludeId` is dropped
    * at the probe.
    */
  def tusQueryTable(spark: SparkSession, p: TusProfiles, kbPath: String, target: LakeTable,
                    excludeId: Option[String]): Tus.TusResult = {
    val t = tusProfiles(spark, LakeDf.toLong(spark, Seq(target)), kbPath, reuseEmbeddings = Some(p.embeddings))
    tusQueryWith(spark, t.buckets, t.signatures, p, excludeId.toSet)
  }

  private def tusQueryWith(spark: SparkSession, tBuckets: DataFrame, tSignatures: DataFrame,
                           lake: TusProfiles, exclude: Set[String]): Tus.TusResult = {
    import spark.implicits._
    val tb = tBuckets.select($"measure", $"band", $"bucket", $"attr" as "t_attr", $"table_id" as "t_table")
    val sb = lake.buckets.select($"measure", $"band", $"bucket", $"attr" as "s_attr", $"table_id" as "s_table")
      .filter(!$"s_table".isin(exclude.toSeq: _*))
    val collided = tb.join(sb, Seq("measure", "band", "bucket"))
      .filter($"t_table" =!= $"s_table")
      .select("measure", "t_attr", "t_table", "s_attr", "s_table")
      .distinct()

    val tSig = tSignatures.select($"attr" as "t_attr", $"measure", $"sig" as "t_sig", $"col_idx" as "t_col")
    val sSig = lake.signatures.select($"attr" as "s_attr", $"measure", $"sig" as "s_sig", $"col_idx" as "s_col")
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

  /** Aurum's profiles as Spark-SQL frames with the schemas of
    * `Aurum.AurumIndexes`' `catalog`, `signatures` and `buckets`, and the
    * numeric columns' `ranges` (attr, lo, hi).
    */
  final case class AurumProfiles(catalog: DataFrame, signatures: DataFrame, buckets: DataFrame, ranges: DataFrame)

  /** Aurum's profiling of a long lake in Spark SQL: a `countDistinct`
    * catalog with a numeric UDF; AN from the names; per textual column, its
    * tokens joined and made `distinct` for AC, and the TF-IDF join weighting
    * each token's base vector for AT, summed per column in the order its
    * rows arrive; the numeric ranges as `min`/`max` over the parsed values.
    * The catalog, signatures and ranges are collected into local frames, so
    * every reader sees one evaluation of them.
    */
  def aurumProfiles(spark: SparkSession, lakeLong: DataFrame): AurumProfiles = {
    import spark.implicits._
    def local(df: DataFrame) = spark.createDataFrame(df.collect().toSeq.asJava, df.schema)
    val lake = lakeLong.withColumn("attr", concat_ws("#", $"table_id", $"col_idx"))
    val nonEmpty = $"value".isNotNull && length(trim($"value")) > 0
    val isNumUdf = udf((v: String) => Tokenizer.isNumericValue(v))
    val catalog = local(lake.groupBy($"attr", $"table_id", $"col_idx")
      .agg(
        first($"col_name") as "col_name",
        sum(when(nonEmpty, 1L).otherwise(0L)) as "n_values",
        countDistinct(when(nonEmpty, $"value")) as "n_distinct",
        sum(when(nonEmpty && isNumUdf($"value"), 1L).otherwise(0L)) as "n_numeric")
      .withColumn("is_numeric", $"n_values" > 0 && $"n_numeric" >= lit(D3LConfig().numericFrac) * $"n_values")
      .withColumn("uniqueness",
        when($"n_values" > 0, $"n_distinct".cast("double") / $"n_values").otherwise(0.0)))

    val sigName = catalog.select($"attr", $"col_name").as[(String, String)]
      .map { case (a, n) => (a, Aurum.An, MinHash.signature(Tokenizer.qgrams(n))) }

    val textual = catalog.filter(!$"is_numeric").select("attr")
    val toks = lake.filter(nonEmpty)
      .select($"attr", $"value")
      .join(textual, "attr")
      .as[(String, String)]
      .flatMap { case (a, v) => Tokenizer.tokens(v).map(t => (a, t)) }
      .toDF("attr", "token")
    val attrTokens = toks.select("attr", "token").distinct()

    val sigContent = attrTokens.as[(String, String)].groupByKey(_._1)
      .mapGroups { (a, it) => (a, Aurum.Ac, MinHash.signature(it.map(_._2).toSeq)) }

    // TF-IDF simhash: v(a) = Σ_t tf(a,t)·idf(t)·base(t).
    val nAttrs = attrTokens.select("attr").distinct().count().max(1L)
    val df = attrTokens.groupBy("token").agg(count(lit(1)) as "adf")
    val tf = toks.groupBy("attr", "token").agg(count(lit(1)) as "tf")
    val sigTfidf = tf.join(df, "token")
      .select($"attr", $"token", ($"tf" * log(lit(nAttrs.toDouble) / $"adf")) as "wt")
      .as[(String, String, Double)]
      .groupByKey(_._1)
      .mapGroups { (a, it) =>
        val acc = new Array[Float](Embeddings.Dim)
        it.foreach { case (_, t, w) =>
          val bv = Embeddings.baseVector(t)
          var i = 0
          while (i < Embeddings.Dim) { acc(i) += (bv(i) * w).toFloat; i += 1 }
        }
        (a, Aurum.At, RandomProjection.signature(acc))
      }

    val signatures = local(sigName.union(sigContent).union(sigTfidf)
      .toDF("attr", "measure", "sig")
      .join(catalog.select("attr", "table_id", "col_idx"), "attr"))
    val buckets = signatures
      .select($"attr", $"table_id", $"measure", $"sig").as[(String, String, String, Array[Long])]
      .flatMap { case (attr, tid, m, sig) =>
        val levels = if (m == Aurum.At) Banding.simhashLevels else Banding.minhashLevels
        Banding.buckets(sig, levels).map { case (band, bucket) => (m, band, bucket, attr, tid) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")

    val ranges = local(lake.filter(nonEmpty)
      .join(catalog.filter($"is_numeric").select("attr"), "attr")
      .select($"attr", $"value").as[(String, String)]
      .flatMap { case (a0, v) => Tokenizer.parseNumeric(v).map(d => (a0, d)) }
      .toDF("attr", "num")
      .groupBy("attr")
      .agg(min($"num") as "lo", max($"num") as "hi"))
    AurumProfiles(catalog, signatures, buckets, ranges)
  }

  /** Aurum's EKG and PK/FK table graph as a Spark-SQL self-join over the
    * profiles `p` (of [[aurumProfiles]]): a bucket self-join whose collided
    * pairs are estimated with their signatures, a numeric-range
    * `crossJoin`, the max per pair; edges are the pairs at or above
    * `Aurum.EdgeThreshold`, PK/FK candidates the pairs at or above 0.15
    * with a unique textual side.
    */
  def aurumEkg(spark: SparkSession, p: AurumProfiles): (IndexedSeq[Aurum.Edge], Map[String, Set[String]]) = {
    import spark.implicits._
    val (catalog, buckets) = (p.catalog, p.buckets)
    val a = buckets.select($"measure", $"band", $"bucket", $"attr" as "a_attr", $"table_id" as "a_table")
    val b = buckets.select($"measure", $"band", $"bucket", $"attr" as "b_attr", $"table_id" as "b_table")
    val collided = a.join(b, Seq("measure", "band", "bucket"))
      .filter($"a_attr" < $"b_attr" && $"a_table" =!= $"b_table")
      .select("measure", "a_attr", "a_table", "b_attr", "b_table")
      .distinct()
    val aSig = p.signatures.select($"attr" as "a_attr", $"measure", $"sig" as "a_sig")
    val bSig = p.signatures.select($"attr" as "b_attr", $"measure", $"sig" as "b_sig")
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

    val ranges = p.ranges.join(catalog.select("attr", "table_id"), "attr")
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
