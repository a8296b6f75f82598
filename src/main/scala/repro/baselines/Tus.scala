package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{D3LConfig, FeatureExtraction}
import repro.lake.{LakeDf, LakeTable}
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.stats.Ccdf
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
  *
  * The signatures are computed on Spark and collected to the driver once;
  * queries probe their buckets in plain Scala and start no Spark job, except
  * for `queryTable`'s profiling of its target (Spark plus SyntheticKB
  * lookups), which is TUS's reproduced query-time cost.
  */
object Tus {

  /** A textual attribute: column `colIdx` of `tableId`, with its signature
    * per measure (in [[measures]] order), empty when it has none.
    */
  final case class Attr(tableId: String, colIdx: Int, sigs: IndexedSeq[Array[Long]])

  final case class TusIndexes(
      catalog: DataFrame,
      signatures: DataFrame, // attr, measure, sig, table_id, col_idx
      buckets: DataFrame,    // measure, band, bucket, attr, table_id
      /** Token → vector model the NL signatures were built with. */
      embeddings: Map[String, Array[Float]],
      kbPath: String,
      /** The lake's textual attributes, collected, in (table id, column) order. */
      attrs: IndexedSeq[Attr],
      /** Per measure ordinal, `attrs`' [[Banding.bucketMap]]. */
      bucketAttrs: IndexedSeq[Map[(Int, Long), Array[Int]]],
  ) {
    /** Releases the cached catalog and signatures. */
    def unpersistAll(): Unit = Seq(catalog, signatures).foreach(_.unpersist())
  }

  /** Lake table `sTable` as the `rank`-th most unionable (from 1) with target `tTable`. */
  final case class Ranked(tTable: String, sTable: String, score: Double, rank: Int)

  /** Column `sCol` of `sTable` aligned with column `tCol` of `tTable`, at the max probability over the measures. */
  final case class Aligned(tTable: String, tCol: Int, sTable: String, sCol: Int, bestP: Double)

  /** Rankings (each in rank order) and alignments of every target, in target order. */
  final case class TusResult(ranked: IndexedSeq[Ranked], aligned: IndexedSeq[Aligned])

  val Set_ = "SET"; val Sem = "SEM"; val Nl = "NL"
  val measures: Seq[String] = Seq(Set_, Sem, Nl)

  /** Banding levels per measure ordinal. */
  private val levels: IndexedSeq[Seq[Banding.Level]] =
    measures.map(m => if (m == Nl) Banding.simhashLevels else Banding.minhashLevels).toIndexedSeq

  /** Build the three TUS indexes over a lake (includes the KB mapping of
    * every distinct token — the dominant indexing cost, as in the paper).
    */
  def index(spark: SparkSession, lakeLong: DataFrame, kbPath: String,
            reuseEmbeddings: Option[Map[String, Array[Float]]] = None): TusIndexes = {
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
      .withColumn("is_numeric", $"n_values" > 0 && $"n_numeric" >= lit(D3LConfig().numericFrac) * $"n_values")
      .cache()

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
    val embeddings = reuseEmbeddings.getOrElse(FeatureExtraction.trainEmbeddings(values.rdd.map(_._2)))
    val sigNl = attrTokens.join(embeddings.toSeq.toDF("token", "vec"), Seq("token"))
      .select($"attr", $"vec").as[(String, Array[Float])]
      .groupByKey(_._1)
      .mapGroups { (a, it) => (a, Nl, RandomProjection.signature(Embeddings.mean(it.map(_._2).toSeq))) }

    // The catalog and signatures stay cached with what was collected (Table
    // II writes them); the intermediate caches are released once computed.
    val signatures = sigSet.union(sigSem).union(sigNl)
      .toDF("attr", "measure", "sig")
      .join(catalog.select("attr", "table_id", "col_idx"), "attr")
      .cache()
    val rows = signatures.select("table_id", "col_idx", "measure", "sig")
      .as[(String, Int, String, Array[Long])].collect()
    lake.unpersist(); values.unpersist(); attrTokens.unpersist(); attrClasses.unpersist()
    val attrs = rows.groupBy(r => (r._1, r._2)).toIndexedSeq.sortBy(_._1).map { case ((tid, c), rs) =>
      Attr(tid, c, measures.map(m => rs.find(_._3 == m).fold(Array.emptyLongArray)(_._4)).toIndexedSeq)
    }
    val buckets = signatures
      .select($"attr", $"table_id", $"measure", $"sig").as[(String, String, String, Array[Long])]
      .flatMap { case (attr, tid, m, sig) =>
        Banding.buckets(sig, levels(measures.indexOf(m))).map { case (band, bucket) => (m, band, bucket, attr, tid) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")
    val bucketAttrs = measures.indices.map(m => Banding.bucketMap(attrs.map(_.sigs(m)), levels(m)))
    TusIndexes(catalog, signatures, buckets, embeddings, kbPath, attrs, bucketAttrs)
  }

  /** Batched query with stored target signatures (lake members). */
  def queryAll(idx: TusIndexes, targetIds: Seq[String]): TusResult = {
    val answers = targetIds.distinct.toIndexedSeq
      .map(t => searchTable(idx, t, idx.attrs.filter(_.tableId == t), Set(t)))
    TusResult(answers.flatMap(_.ranked), answers.flatMap(_.aligned))
  }

  /** Single-target query including fresh feature extraction + KB mapping of
    * the target's tokens (the paper's TUS query-time leak). `excludeId`
    * drops a lake table (e.g. the lake copy of the target) at the probe, as
    * does the lake table whose id equals `target.id`: a table is never its
    * own answer.
    */
  def queryTable(spark: SparkSession, idx: TusIndexes, target: LakeTable,
                 excludeId: Option[String] = None): TusResult = {
    val t = index(spark, LakeDf.toLong(spark, Seq(target)), idx.kbPath, reuseEmbeddings = Some(idx.embeddings))
    t.unpersistAll()
    searchTable(idx, target.id, t.attrs, excludeId.toSet + target.id)
  }

  /** Target table `tTable` with textual attributes `ts`, in column order.
    * Per measure and target attribute, the lake attributes sharing a bucket
    * with it, outside the `exclude`d tables, are its candidates; a
    * candidate's similarity (Jaccard, or max(0, cosine) for NL) becomes a
    * probability by the empirical CDF of those candidates' similarities
    * (`cume_dist`). A pair's probability is the max over the measures.
    * Table unionability follows TUS's alignment aggregation: per target
    * attribute the best pair probability with S, summed in target-attribute
    * order and divided by the number of target attributes with a candidate
    * — a pure max-of-pairs table score degenerates on clean lakes where many
    * tables tie at probability 1.0 on one generic column.
    */
  private def searchTable(idx: TusIndexes, tTable: String, ts: IndexedSeq[Attr], exclude: Set[String]): TusResult = {
    val n = idx.attrs.size
    val pairP = scala.collection.mutable.LongMap.empty[Double] // target position · n + lake position → probability
    for (ti <- ts.indices; m <- measures.indices) {
      val sig = ts(ti).sigs(m)
      val cands = Banding.buckets(sig, levels(m))
        .flatMap(idx.bucketAttrs(m).getOrElse(_, Array.emptyIntArray))
        .distinct.filterNot(si => exclude.contains(idx.attrs(si).tableId))
      val sims = cands.map { si =>
        val other = idx.attrs(si).sigs(m)
        if (measures(m) == Nl) math.max(0.0, RandomProjection.estimateCosine(sig, other))
        else MinHash.estimateJaccard(sig, other)
      }
      val sorted = sims.sorted(Ordering.Double.TotalOrdering).toArray
      cands.zip(sims).foreach { case (si, sim) =>
        val k = ti.toLong * n + si
        pairP(k) = math.max(pairP.getOrElse(k, 0.0), Ccdf.upperBound(sorted, sim).toDouble / sorted.length)
      }
    }
    val aligned = pairP.keys.toIndexedSeq.sorted.map { k =>
      val (t, s) = (ts((k / n).toInt), idx.attrs((k % n).toInt))
      Aligned(tTable, t.colIdx, s.tableId, s.colIdx, pairP(k))
    }
    val best = aligned.groupMapReduce(a => (a.tCol, a.sTable))(_.bestP)(math.max).toIndexedSeq.sortBy(_._1._1)
    val nAligned = best.map(_._1._1).distinct.size
    val ranked = best.groupMap(_._1._2)(_._2).map { case (s, ps) => (s, ps.sum / nAligned) }.toIndexedSeq
      .sortBy { case (s, score) => (score, s) }(
        Ordering.Tuple2(Ordering.Double.TotalOrdering.reverse, Ordering.String))
      .zipWithIndex.map { case ((s, score), i) => Ranked(tTable, s, score, i + 1) }
    TusResult(ranked, aligned)
  }
}
