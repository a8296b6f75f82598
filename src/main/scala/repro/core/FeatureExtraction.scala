package repro.core

import scala.collection.mutable
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.lake.LakeTable
import repro.text.{Embeddings, FormatRegex, Tokenizer}
import repro.lsh.{Banding, MinHash, RandomProjection}

/** Algorithm 1 (index construction).
  *
  * [[extractTable]] is the per-table kernel: per attribute it derives the
  * q-grams of its name (ℕ), the rarest word of every value part (𝕍, the
  * "informative token" TF/IDF analogue), the format string of every value
  * (𝔽), the mean embedding of every part's most frequent word (𝔼), and a
  * sorted numeric sample (𝔻). ℕ/𝕍/𝔽 become MinHash signatures, 𝔼 a
  * random-projection signature; banding the signatures yields the buckets
  * that *are* the four LSH indexes.
  *
  * [[extract]] applies the kernel to every table of a long-format lake
  * (`table_id, col_idx, col_name, row_idx, value`) on Spark and collects its
  * output to the driver, where [[LakeIndexes]] holds it. The only lake-wide
  * aggregation is embedding training ([[trainEmbeddings]]), one shuffle of
  * per-partition token sums by token; the trained model is collected to the
  * driver once and kept there as [[LakeIndexes.embeddings]]. The serving
  * index bands the features on the driver ([[bucketsOf]]), and the
  * [[LakeIndexes]] frames are local views of them. A query target is
  * extracted on the driver by calling the kernel directly.
  */
object FeatureExtraction {

  /** One column of a table, values in row order (nullable). */
  final case class ColumnValues(colIdx: Int, name: String, values: Seq[String])

  /** Attribute id of column `colIdx` of table `tableId`. */
  def attrId(tableId: String, colIdx: Int): String = s"$tableId#$colIdx"

  /** A value takes part in the indexes when something other than spaces
    * remains (`length(trim(value)) > 0` in Spark SQL).
    */
  private def nonEmpty(v: String): Boolean = v != null && v.exists(_ != ' ')

  /** LSH buckets of one signature under its evidence type's levels. */
  def bucketsOf(evidence: String, sig: Array[Long]): Seq[(Int, Long)] =
    Banding.buckets(sig, if (evidence == Evidence.E) Banding.simhashLevels else Banding.minhashLevels)

  /** Fraction of the non-empty `values` that parse as numbers. */
  private def numericFrac(values: Seq[String]): Double =
    if (values.isEmpty) 0.0 else values.count(Tokenizer.isNumericValue).toDouble / values.size

  /** Numeric-attribute rule over the non-empty `values`, whose [[numericFrac]] is `frac`. */
  private def isNumeric(values: Seq[String], frac: Double, cfg: D3LConfig): Boolean =
    values.nonEmpty && frac >= cfg.numericFrac

  /** Algorithm 1 on one lake table, embedding with the lake's model. */
  def extractTable(t: LakeTable, cfg: D3LConfig, embedding: String => Option[Array[Float]]): TableFeatures =
    extractTable(t.id, t.columns.zipWithIndex.map { case (c, i) => ColumnValues(i, c.name, c.values) },
      cfg, embedding)

  /** Algorithm 1 on one table. `embedding` maps a token to its trained
    * vector (tokens without one do not contribute to 𝔼). Columns without
    * rows are skipped, as they have no row in the long format.
    */
  def extractTable(tableId: String, columns: Seq[ColumnValues], cfg: D3LConfig,
                   embedding: String => Option[Array[Float]]): TableFeatures = {
    val cols = columns.filter(_.values.nonEmpty).sortBy(_.colIdx)
    val sigs = Seq.newBuilder[AttrSignature]
    val samples = Seq.newBuilder[AttrSample]
    val profiles = cols.map { c =>
      val attr = attrId(tableId, c.colIdx)
      val vals = c.values.filter(nonEmpty)
      val n = vals.size
      val frac = numericFrac(vals)
      val numeric = isNumeric(vals, frac, cfg)
      def sig(ev: String, s: Array[Long]): Unit = sigs += AttrSignature(attr, c.colIdx, ev, s)

      sig(Evidence.N, MinHash.signature(Tokenizer.qgrams(c.name)))
      if (n > 0) sig(Evidence.F, MinHash.signature(vals.map(FormatRegex.formatString).distinct))

      // 𝕍 / 𝔼 (textual attributes only): per value part, the rarest word
      // joins the tset T(a) (Alg. 1 l.10), the most frequent is embedded (l.13).
      val parts = if (numeric) Seq.empty else vals.flatMap(Tokenizer.partWords)
      val freq = mutable.HashMap.empty[String, Int].withDefaultValue(0)
      parts.foreach(_.foreach(w => freq(w) += 1))
      val tset = parts.map(_.minBy(w => (freq(w), w))).distinct
      if (tset.nonEmpty) sig(Evidence.V, MinHash.signature(tset))
      val vecs = parts.map(_.minBy(w => (-freq(w), w))).distinct.flatMap(embedding)
      if (vecs.nonEmpty) sig(Evidence.E, RandomProjection.signature(Embeddings.mean(vecs)))

      if (numeric) {
        val all = vals.flatMap(Tokenizer.parseNumeric).toArray
        java.util.Arrays.sort(all)
        val max = cfg.maxNumericSample
        samples += AttrSample(attr, c.colIdx,
          if (all.length <= max) all else Array.tabulate(max)(i => all((i.toLong * all.length / max).toInt)))
      }

      AttrProfile(
        attr = attr, tableId = tableId, colIdx = c.colIdx, colName = c.name,
        nValues = n, nDistinct = vals.distinct.size,
        nullFrac = (c.values.size - n).toDouble / c.values.size,
        avgLen = if (n == 0) None else Some(vals.map(v => v.codePointCount(0, v.length).toLong).sum.toDouble / n),
        numericFrac = frac, isNumeric = numeric, tsetSize = tset.size)
    }
    TableFeatures(tableId, profiles, sigs.result(), samples.result(), SubjectAttribute.predict(profiles))
  }

  /** Embedding-training input of one table: the words of every non-empty
    * value of its textual attributes, in order, one list per value.
    */
  private def trainingTokens(columns: Seq[ColumnValues], cfg: D3LConfig): Seq[Seq[String]] =
    columns.filterNot { c =>
      val vals = c.values.filter(nonEmpty)
      isNumeric(vals, numericFrac(vals), cfg)
    }.flatMap(_.values.filter(nonEmpty).map(v => Tokenizer.partWords(v).flatten))

  /** Build the index of a lake in two Spark jobs. The long lake is
    * regrouped by `table_id` once, into `defaultParallelism` partitions, and
    * both consumers read that one shuffle's output: embedding training
    * ([[trainEmbeddings]], whose model is collected to the driver and
    * broadcast to the kernel) and the kernel, which runs once per table and
    * whose output is collected straight to the driver, sorted by table id so
    * that dense ids do not depend on the partitioning. Nothing stays
    * persisted in Spark. When `reuseEmbeddings` is given (a query target),
    * that model is collected instead of retraining on the (tiny) input.
    */
  def extract(spark: SparkSession, lakeLong: DataFrame, cfg: D3LConfig = D3LConfig(),
              reuseEmbeddings: Option[DataFrame] = None): LakeIndexes = {
    import spark.implicits._

    val tables = lakeLong
      .select($"table_id", $"col_idx", $"col_name", $"row_idx", $"value")
      .as[(String, Int, String, Long, String)]
      .rdd
      .map { case (id, ci, name, row, v) => (id, (ci, name, row, v)) }
      .groupByKey(spark.sparkContext.defaultParallelism)
      .mapValues { rows =>
        rows.toSeq.groupBy(_._1).toSeq.map { case (ci, rs) =>
          val sorted = rs.sortBy(_._3)
          ColumnValues(ci, sorted.head._2, sorted.map(_._4))
        }
      }

    // ---- 𝔼: random-indexing embeddings (DESIGN.md §4.1) --------------------
    val embeddings = reuseEmbeddings match {
      case Some(model) => model.select("token", "vec").as[(String, Array[Float])].collect().toMap
      case None => trainEmbeddings(tables.flatMap { case (_, cols) => trainingTokens(cols, cfg) })
    }
    val shipped = spark.sparkContext.broadcast(embeddings)
    val features = tables.map { case (id, cols) => extractTable(id, cols, cfg, shipped.value.get) }
      .collect().sortBy(_.tableId).toSeq
    shipped.destroy()
    new LakeIndexes(spark, features, embeddings)
  }

  /** Random-indexing training over the words of each value: a token's
    * embedding is the sum over all of its co-occurrences among the first 12
    * words of a value of the co-token's deterministic ±1 base vector (self
    * included so single-token values still embed). Each partition sums its
    * values' contributions per token before the one shuffle by token. Sums
    * of ±1 are exact in `Float`, so the result does not depend on the order
    * or grouping of the terms.
    */
  def trainEmbeddings(values: RDD[Seq[String]]): Map[String, Array[Float]] =
    values
      .mapPartitions { it =>
        val sums = mutable.HashMap.empty[String, Array[Float]]
        it.foreach { ws =>
          val ts = ws.take(12)
          val context = ts.foldLeft(new Array[Float](Embeddings.Dim))((acc, u) =>
            Embeddings.add(acc, Embeddings.baseVector(u)))
          ts.foreach(t => Embeddings.add(sums.getOrElseUpdate(t, new Array[Float](Embeddings.Dim)), context))
        }
        sums.iterator
      }
      .reduceByKey(Embeddings.add(_, _))
      .collect().toMap
}
