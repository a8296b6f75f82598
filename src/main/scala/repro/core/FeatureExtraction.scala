package repro.core

import scala.collection.mutable
import org.apache.spark.SparkException
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.lake.LakeTable
import repro.text.{Embeddings, FormatRegex, Tokenizer}
import repro.lsh.{MinHash, RandomProjection}

/** Algorithm 1 (index construction).
  *
  * [[extractTable]] is the per-table kernel: per attribute it derives the
  * q-grams of its name (ℕ), the rarest word of every value part (𝕍, the
  * "informative token" TF/IDF analogue), the format string of every value
  * (𝔽), the mean embedding of every part's most frequent word (𝔼), and a
  * sorted numeric sample (𝔻). ℕ/𝕍/𝔽 become MinHash signatures, 𝔼 a
  * random-projection signature; banding the signatures yields the buckets
  * that *are* the four LSH indexes. It emits one record per attribute
  * ([[AttrFeatures]]: catalog statistics, signatures by evidence ordinal,
  * 𝔻 sample).
  *
  * [[extract]] applies the kernel to every table of a long-format lake
  * (`table_id, col_idx, col_name, row_idx, value`) on Spark and collects its
  * output to the driver, where [[LakeIndexes]] holds it. The only lake-wide
  * aggregation is embedding training ([[trainEmbeddings]]), one shuffle of
  * per-partition token sums by token; the trained model is collected to the
  * driver once and kept there as [[LakeIndexes.embeddings]]. The serving
  * index bands the records on the driver ([[ServingIndex.levels]]), and the
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

  /** The non-empty values of a column: each distinct one once, in
    * first-seen order, with its number of occurrences, and the
    * numeric-attribute rule over them (for D³L's and Aurum's kernels).
    */
  private[repro] final class Extent(values: Seq[String], cfg: D3LConfig) {
    val counts: mutable.LinkedHashMap[String, Int] = mutable.LinkedHashMap.empty
    values.foreach(v => if (nonEmpty(v)) counts(v) = counts.getOrElse(v, 0) + 1)
    /** Number of non-empty values. */
    val n: Int = counts.valuesIterator.sum
    /** Number of non-empty values that parse as numbers. */
    val nNumeric: Int = counts.iterator.collect { case (v, k) if Tokenizer.isNumericValue(v) => k }.sum
    /** Fraction of the non-empty values that parse as numbers. */
    val numericFrac: Double = if (n == 0) 0.0 else nNumeric.toDouble / n
    val numeric: Boolean = n > 0 && numericFrac >= cfg.numericFrac
  }

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
    val attrs = columns.filter(_.values.nonEmpty).sortBy(_.colIdx).map { c =>
      val x = new Extent(c.values, cfg)
      val n = x.n
      val sigs = Array.fill(Evidence.indexed.size)(Array.emptyLongArray)
      def sig(ev: String, s: Array[Long]): Unit = sigs(Evidence.all.indexOf(ev)) = s

      sig(Evidence.N, MinHash.signature(Tokenizer.qgrams(c.name)))
      if (n > 0) sig(Evidence.F, MinHash.signature(x.counts.keysIterator.map(FormatRegex.formatString).toSet))

      // 𝕍 / 𝔼 (textual attributes only): per value part, the rarest word
      // joins the tset T(a) (Alg. 1 l.10), the most frequent is embedded (l.13).
      // Word frequencies count every occurrence of a value.
      val parts = if (x.numeric) Seq.empty else x.counts.toSeq.flatMap { case (v, k) => Tokenizer.partWords(v).map(_ -> k) }
      val freq = mutable.HashMap.empty[String, Int].withDefaultValue(0)
      parts.foreach { case (ws, k) => ws.foreach(w => freq(w) += k) }
      val tset = parts.map(_._1.minBy(w => (freq(w), w))).distinct
      if (tset.nonEmpty) sig(Evidence.V, MinHash.signature(tset))
      val vecs = parts.map(_._1.minBy(w => (-freq(w), w))).distinct.flatMap(embedding)
      if (vecs.nonEmpty) sig(Evidence.E, RandomProjection.signature(Embeddings.mean(vecs)))

      val sample = Option.when(x.numeric) {
        val all = x.counts.iterator.flatMap { case (v, k) => Tokenizer.parseNumeric(v).iterator.flatMap(Iterator.fill(k)(_)) }.toArray
        java.util.Arrays.sort(all)
        val max = cfg.maxNumericSample
        if (all.length <= max) all else Array.tabulate(max)(i => all((i.toLong * all.length / max).toInt))
      }

      AttrFeatures(
        colIdx = c.colIdx, colName = c.name,
        nValues = n, nDistinct = x.counts.size,
        nullFrac = (c.values.size - n).toDouble / c.values.size,
        avgLen = if (n == 0) None
          else Some(x.counts.iterator.map { case (v, k) => k * v.codePointCount(0, v.length).toLong }.sum.toDouble / n),
        numericFrac = x.numericFrac, isNumeric = x.numeric, tsetSize = tset.size,
        sigs = sigs, sample = sample)
    }
    TableFeatures(tableId, attrs, SubjectAttribute.predict(attrs))
  }

  /** Embedding-training input of one table: the words of every non-empty
    * value of its textual attributes, in order, one list per value.
    */
  private[repro] def trainingTokens(columns: Seq[ColumnValues], cfg: D3LConfig): Seq[Seq[String]] =
    columns.filterNot(c => new Extent(c.values, cfg).numeric)
      .flatMap(_.values.filter(nonEmpty).map(v => Tokenizer.partWords(v).flatten))

  /** Build the index of a lake in two Spark jobs over one [[regroup]] of it:
    * embedding training ([[trainEmbeddings]], whose model is collected and
    * broadcast to the kernel) and the kernel, run once per table, whose
    * output is collected straight to the driver, sorted by table id so that
    * dense ids do not depend on the partitioning. Nothing stays persisted.
    * When `reuseEmbeddings` is given (a query target), that model is
    * collected instead of retraining on the (tiny) input. A `col_name` with
    * no letter or digit has the empty-set ℕ signature, which falls in no
    * bucket, so the attribute is found by its values alone.
    */
  def extract(spark: SparkSession, lakeLong: DataFrame, cfg: D3LConfig = D3LConfig(),
              reuseEmbeddings: Option[DataFrame] = None): LakeIndexes = {
    import spark.implicits._
    val tables = regroup(spark, lakeLong)

    // ---- 𝔼: random-indexing embeddings (DESIGN.md §4.1) --------------------
    val embeddings = reuseEmbeddings match {
      case Some(model) => model.select("token", "vec").as[(String, Array[Float])].collect().toMap
      case None => rejectingMalformed(trainEmbeddings(tables.flatMap { case (_, cols) => trainingTokens(cols, cfg) }))
    }
    val shipped = spark.sparkContext.broadcast(embeddings)
    val features = rejectingMalformed(tables.map { case (id, cols) => extractTable(id, cols, cfg, shipped.value.get) }
      .collect()).sortBy(_.tableId).toSeq
    shipped.destroy()
    new LakeIndexes(spark, features, embeddings)
  }

  /** Rejects a query target whose table id is null or empty, as [[regroup]] rejects such a lake table. */
  private[repro] def requireTargetId(id: String): Unit =
    require(id != null && id.nonEmpty, s"malformed query target: ${if (id == null) "null" else "empty"} table id")

  /** A long-format lake (`table_id, col_idx, col_name, row_idx, value`)
    * regrouped by `table_id` into `defaultParallelism` partitions: per table,
    * its columns with their values in `row_idx` order (any `Long`, negative
    * ones too). One shuffle, whose output each later action reads. An action
    * over it rejects a malformed lake, under [[rejectingMalformed]], with an
    * `IllegalArgumentException` naming the table, column and row: a null or
    * empty `table_id`, a negative `col_idx`, a column with two names or two
    * cells in one row.
    */
  private[repro] def regroup(spark: SparkSession, lakeLong: DataFrame): RDD[(String, Seq[ColumnValues])] = {
    import spark.implicits._
    lakeLong
      .select($"table_id", $"col_idx", $"col_name", $"row_idx", $"value")
      .as[(String, Int, String, Long, String)]
      .rdd
      .map { case (id, ci, name, row, v) =>
        require(id != null && id.nonEmpty,
          s"malformed lake: ${if (id == null) "null" else "empty"} table id at column $ci ('$name'), row $row")
        require(ci >= 0, s"malformed lake: table '$id' has a negative column index $ci ('$name') in row $row")
        (id, (ci, name, row, v))
      }
      .groupByKey(spark.sparkContext.defaultParallelism)
      .map { case (id, rows) =>
        id -> rows.toSeq.groupBy(_._1).toSeq.map { case (ci, rs) =>
          val sorted = rs.sortBy(_._3)
          sorted.iterator.zip(sorted.iterator.drop(1)).foreach { case (a, b) =>
            require(a._2 == b._2,
              s"malformed lake: table '$id' column $ci has two names, '${a._2}' in row ${a._3} and '${b._2}' in row ${b._3}")
            require(a._3 != b._3, s"malformed lake: table '$id' column $ci has two cells in row ${a._3}")
          }
          ColumnValues(ci, sorted.head._2, sorted.map(_._4))
        }
      }
  }

  /** A Spark `action` over a [[regroup]], rethrowing a task's
    * `IllegalArgumentException` (a malformed lake) as raised, unwrapped.
    */
  private[repro] def rejectingMalformed[T](action: => T): T =
    try action catch { case e: SparkException if e.getCause.isInstanceOf[IllegalArgumentException] => throw e.getCause }

  /** Random-indexing training over the words of each value: a token's
    * embedding is the sum over all of its co-occurrences among the first 12
    * words of a value of the co-token's deterministic ±1 base vector (self
    * included so single-token values still embed). Each partition sums its
    * values' contributions per token before the one shuffle by token, and
    * computes each token's base vector once. Sums of ±1 are exact in
    * `Float`, so the result does not depend on the order or grouping of the
    * terms.
    */
  def trainEmbeddings(values: RDD[Seq[String]]): Map[String, Array[Float]] =
    values
      .mapPartitions { it =>
        val sums = mutable.HashMap.empty[String, Array[Float]]
        val base = mutable.HashMap.empty[String, Array[Float]]
        it.foreach { ws =>
          val ts = ws.take(12)
          val context = ts.foldLeft(new Array[Float](Embeddings.Dim))((acc, u) =>
            Embeddings.add(acc, base.getOrElseUpdate(u, Embeddings.baseVector(u))))
          ts.foreach(t => Embeddings.add(sums.getOrElseUpdate(t, new Array[Float](Embeddings.Dim)), context))
        }
        sums.iterator
      }
      .reduceByKey(Embeddings.add(_, _))
      .collect().toMap
}
