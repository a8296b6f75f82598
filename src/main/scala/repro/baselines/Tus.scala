package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.core.FeatureExtraction
import repro.lake.{LakeDf, LakeTable}
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.text.{Embeddings, Tokenizer}

/** Table Union Search baseline (Nargesian et al., PVLDB'18), reimplemented
  * per §V-A/§V-D of the D³L paper (the original is not public; the paper's
  * authors also reimplemented it).
  *
  * Three unionability measures over *instance values only* (numeric columns
  * ignored entirely, as the paper notes in Experiment 6):
  *   SET — Jaccard over full distinct token sets (MinHash);
  *   SEM — Jaccard over knowledge-base class sets of those tokens (MinHash,
  *         classes resolved against [[SyntheticKB]] token-by-token — the
  *         YAGO cost);
  *   NL  — cosine over mean token embeddings (random projection).
  * Each measure's score is converted to a probability via the empirical CDF
  * over that target attribute's candidates, the per-pair ensemble takes the
  * max, and table aggregation is max-score — the dispersion + max-score
  * behaviour the paper blames for TUS's ranking quality.
  */
object Tus {

  final case class TusIndexes(
      catalog: DataFrame,
      signatures: DataFrame, // attr, measure, sig, table_id, col_idx
      buckets: DataFrame,    // measure, band, bucket, attr, table_id
      tokenEmbeddings: DataFrame,
      kbPath: String,
  ) {
    // tokenEmbeddings is a local frame of the trained model: nothing to cache.
    def cacheAll(): TusIndexes = {
      Seq(catalog, signatures, buckets).foreach(df => { df.cache(); df.count() })
      this
    }
    def unpersistAll(): Unit =
      Seq(catalog, signatures, buckets).foreach(_.unpersist())
  }

  final case class TusResult(ranking: DataFrame, alignments: DataFrame)

  val Set_ = "SET"; val Sem = "SEM"; val Nl = "NL"
  val measures: Seq[String] = Seq(Set_, Sem, Nl)

  /** Build the three TUS indexes over a lake (includes the KB mapping of
    * every distinct token — the dominant indexing cost, as in the paper).
    */
  def index(spark: SparkSession, lakeLong: DataFrame, kbPath: String,
            reuseEmbeddings: Option[DataFrame] = None): TusIndexes = {
    import spark.implicits._
    val lake = lakeLong
      .withColumn("attr", concat_ws("#", $"table_id", $"col_idx"))
      .cache()
    val nonEmpty = $"value".isNotNull && length(trim($"value")) > 0
    val isNumUdf = udf((v: String) => Tokenizer.isNumericValue(v))
    val catalog = lake.groupBy($"attr", $"table_id", $"col_idx")
      .agg(
        first($"col_name") as "col_name",
        sum(when(nonEmpty, 1L).otherwise(0L)) as "n_values",
        sum(when(nonEmpty && isNumUdf($"value"), 1L).otherwise(0L)) as "n_numeric")
      .withColumn("is_numeric", $"n_values" > 0 && $"n_numeric" >= lit(0.8) * $"n_values")

    val textual = catalog.filter(!$"is_numeric").select("attr")

    val values = lake.filter(nonEmpty)
      .select($"attr", $"value")
      .join(textual, "attr")
      .as[(String, String)]
      .map { case (attr, v) => (attr, Tokenizer.partWords(v).flatten) }
      .cache()

    val attrTokens = values.flatMap { case (attr, ws) => ws.map(w => (attr, w)) }
      .toDF("attr", "token").distinct().cache()

    // SET signatures over the full token sets.
    val sigSet = attrTokens.as[(String, String)].groupByKey(_._1)
      .mapGroups { (a, it) => (a, Set_, MinHash.signature(it.map(_._2).toSeq)) }

    // SEM: map every distinct token through the KB, then hash the class
    // sets. TUS discounts statistically common annotations (its semantic
    // unionability is a significance test, not raw overlap); we emulate the
    // discount by dropping classes present in more than 20% of attributes —
    // without it, ubiquitous classes (City, GivenName) make every pair of
    // textual columns SEM-identical and the ranking degenerates.
    val classes = SyntheticKB.mapTokens(attrTokens.select("token"), kbPath)
    val attrClasses = attrTokens.join(classes, Seq("token"))
      .select("attr", "cls").distinct().cache()
    val nTextualAttrs = math.max(1L, attrTokens.select("attr").distinct().count())
    val commonClasses = attrClasses.groupBy("cls")
      .agg(count(lit(1)) as "df")
      .filter($"df" > lit(0.2) * nTextualAttrs)
      .select("cls")
    val sigSem = attrClasses.join(commonClasses, Seq("cls"), "left_anti")
      .select("attr", "cls")
      .as[(String, String)].groupByKey(_._1)
      .mapGroups { (a, it) => (a, Sem, MinHash.signature(it.map(_._2).toSeq)) }

    // NL: mean embedding of the distinct tokens (embeddings trained on the
    // lake corpus, shared substitute for TUS's pretrained vectors).
    val tokenEmbeddings = reuseEmbeddings.getOrElse(
      FeatureExtraction.trainEmbeddings(values.rdd.map(_._2)).toSeq.toDF("token", "vec"))
    val sigNl = attrTokens.join(tokenEmbeddings, Seq("token"))
      .select($"attr", $"vec").as[(String, Array[Float])]
      .groupByKey(_._1)
      .mapGroups { (a, it) => (a, Nl, RandomProjection.signature(Embeddings.mean(it.map(_._2).toSeq))) }

    val signatures = sigSet.union(sigSem).union(sigNl)
      .toDF("attr", "measure", "sig")
      .join(catalog.select("attr", "table_id", "col_idx"), "attr")

    val buckets = signatures
      .select($"attr", $"table_id", $"measure", $"sig").as[(String, String, String, Array[Long])]
      .flatMap { case (attr, tid, m, sig) =>
        val levels = if (m == Nl) Banding.simhashLevels else Banding.minhashLevels
        Banding.buckets(sig, levels).map { case (band, bucket) => (m, band, bucket, attr, tid) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")

    lake.unpersist(); values.unpersist(); attrTokens.unpersist()
    TusIndexes(catalog, signatures, buckets, tokenEmbeddings, kbPath)
  }

  private val simUdf = udf((m: String, a: Seq[Long], b: Seq[Long]) => {
    val aa = a.toArray; val bb = b.toArray
    m match {
      case "NL" => math.max(0.0, RandomProjection.estimateCosine(aa, bb))
      case _    => MinHash.estimateJaccard(aa, bb)
    }
  })

  /** Batched query with stored target signatures (lake members). */
  def queryAll(spark: SparkSession, idx: TusIndexes, targetIds: Seq[String]): TusResult = {
    import spark.implicits._
    val targets = targetIds.toDF("table_id")
    queryWith(spark,
      idx.buckets.join(targets, "table_id"),
      idx.signatures.join(targets, "table_id"),
      idx)
  }

  /** Single-target query including fresh feature extraction + KB mapping of
    * the target's tokens (the paper's TUS query-time leak).
    */
  def queryTable(spark: SparkSession, idx: TusIndexes, target: LakeTable,
                 excludeId: Option[String] = None): TusResult = {
    val tLong = LakeDf.toLong(spark, Seq(target))
    val tIdx = index(spark, tLong, idx.kbPath, reuseEmbeddings = Some(idx.tokenEmbeddings))
    val res = queryWith(spark, tIdx.buckets, tIdx.signatures, idx)
    excludeId match {
      case Some(ex) => TusResult(
        res.ranking.filter(col("s_table") =!= ex),
        res.alignments.filter(col("s_table") =!= ex))
      case None => res
    }
  }

  private def queryWith(spark: SparkSession, tBuckets: DataFrame, tSignatures: DataFrame,
                        idx: TusIndexes): TusResult = {
    import spark.implicits._
    val tb = tBuckets.select($"measure", $"band", $"bucket", $"attr" as "t_attr", $"table_id" as "t_table")
    val sb = idx.buckets.select($"measure", $"band", $"bucket", $"attr" as "s_attr", $"table_id" as "s_table")
    val collided = tb.join(sb, Seq("measure", "band", "bucket"))
      .filter($"t_table" =!= $"s_table")
      .select("measure", "t_attr", "t_table", "s_attr", "s_table")
      .distinct()

    val tSig = tSignatures.select($"attr" as "t_attr", $"measure", $"sig" as "t_sig", $"col_idx" as "t_col")
    val sSig = idx.signatures.select($"attr" as "s_attr", $"measure", $"sig" as "s_sig", $"col_idx" as "s_col")
    val scored = collided
      .join(tSig, Seq("t_attr", "measure"))
      .join(sSig, Seq("s_attr", "measure"))
      .withColumn("sim", simUdf($"measure", $"t_sig", $"s_sig"))
      .select("measure", "t_attr", "t_table", "t_col", "s_attr", "s_table", "s_col", "sim")

    // Similarity → probability by empirical CDF per (measure, target attr);
    // ensemble over measures = max (the paper's characterisation of TUS).
    // Table unionability follows TUS's alignment aggregation: per target
    // attribute take the best pair probability with S, sum over the aligned
    // target attributes, and normalise by the target arity candidate count —
    // a pure max-of-pairs table score degenerates on clean lakes where many
    // tables tie at probability 1.0 on one generic column.
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

    TusResult(ranking, alignments)
  }
}
