package repro.baselines

import java.util.Arrays.asList
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.core.{D3LConfig, FeatureExtraction}
import repro.core.FeatureExtraction.{ColumnValues, Extent, rejectingMalformed}
import repro.lake.LakeTable
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
  * The lake is profiled on Spark in the build shape D³L and Aurum share, and
  * served from the driver. A query starts no Spark job: `queryTable` profiles
  * its target with the same kernel on the driver, its tokens looked up in
  * [[SyntheticKB]] one by one, which is TUS's reproduced query-time cost.
  */
object Tus {

  /** One column's catalog figures and, for a textual column with a token, its signature per measure (in
    * [[measures]] order, empty when it has none) and its tokens' KB classes; no signature for other columns.
    */
  final case class Profile(tableId: String, colIdx: Int, colName: String, nValues: Long, nNumeric: Long,
                           isNumeric: Boolean, sigs: IndexedSeq[Array[Long]], classes: Seq[String]) {
    val attr: String = FeatureExtraction.attrId(tableId, colIdx)
  }

  /** TUS's index on the driver: every column's [[Profile]], in (table id, column) order, and the token → vector
    * model of the NL signatures; nothing stays persisted in Spark. The frames are lazy local views of the profiles,
    * for Table II and tests, with the schemas the Spark-SQL build had: `catalog` (attr, table_id, col_idx, col_name,
    * n_values, n_numeric, is_numeric), `signatures` (attr, measure, sig, table_id, col_idx) and `buckets` (measure,
    * band, bucket, attr, table_id), the LSH indexes.
    */
  final class TusIndexes private[Tus] (
      spark: SparkSession,
      val profiles: IndexedSeq[Profile],
      val embeddings: Map[String, Array[Float]],
      val kbPath: String,
  ) {
    import spark.implicits._

    /** The served attributes: the profiles with signatures. */
    val attrs: IndexedSeq[Profile] = profiles.filter(_.sigs.nonEmpty)
    /** Per measure ordinal, `attrs`' [[Banding.bucketMap]]. */
    private[Tus] val bucketAttrs: IndexedSeq[Map[(Int, Long), Array[Int]]] =
      measures.indices.map(m => Banding.bucketMap(attrs.map(_.sigs(m)), levels(m)))

    lazy val catalog: DataFrame = spark.createDataFrame(asList(profiles.map(p => Row(p.attr, p.tableId, p.colIdx,
      p.colName, p.nValues, p.nNumeric, p.isNumeric)): _*), StructType.fromDDL(
      "attr STRING NOT NULL, table_id STRING, col_idx INT NOT NULL, col_name STRING, n_values BIGINT, " +
      "n_numeric BIGINT, is_numeric BOOLEAN"))
    lazy val signatures: DataFrame = signed
      .map { case (p, m) => (p.attr, measures(m), p.sigs(m), p.tableId, p.colIdx) }
      .toDF("attr", "measure", "sig", "table_id", "col_idx")
    lazy val buckets: DataFrame = signed
      .flatMap { case (p, m) =>
        Banding.buckets(p.sigs(m), levels(m)).map { case (band, bucket) => (measures(m), band, bucket, p.attr, p.tableId) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")

    /** Every signature as (profile, measure ordinal). */
    private def signed: Seq[(Profile, Int)] = for (p <- attrs; m <- p.sigs.indices if p.sigs(m).nonEmpty) yield (p, m)
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

  /** D³L's numeric-attribute rule, which TUS's catalog applies too. */
  private val cfg = D3LConfig()

  /** Build the three TUS indexes over a lake in Spark jobs over one `FeatureExtraction.regroup`, as D³L's build is:
    * embedding training (`FeatureExtraction.trainEmbeddings`, unless `reuseEmbeddings` is given); the KB mapping of
    * every distinct token, one lookup each, per partition (the dominant indexing cost, as in the paper); and the
    * per-table kernel ([[profileTable]]), given both maps by broadcast, whose output is collected once. A malformed
    * lake is rejected as D³L rejects it.
    */
  def index(spark: SparkSession, lakeLong: DataFrame, kbPath: String,
            reuseEmbeddings: Option[Map[String, Array[Float]]] = None): TusIndexes = {
    val tables = FeatureExtraction.regroup(spark, lakeLong)
    val embeddings = reuseEmbeddings.getOrElse(rejectingMalformed(FeatureExtraction.trainEmbeddings(
      tables.flatMap { case (_, cols) => FeatureExtraction.trainingTokens(cols, cfg) })))
    val classes = rejectingMalformed(tables.flatMap(_._2.flatMap(c => tokens(new Extent(c.values, cfg)))).distinct()
      .mapPartitions(SyntheticKB.mapTokens(_, kbPath).iterator).collect().toMap)
    val shipped = spark.sparkContext.broadcast((embeddings, classes))
    val profiles = rejectingMalformed(tables.flatMap { case (id, cols) =>
      profileTable(id, cols, shipped.value._1.get, shipped.value._2.get)
    }.collect()).sortBy(p => (p.tableId, p.colIdx)).toSeq
    shipped.destroy()
    new TusIndexes(spark, withSem(profiles), embeddings, kbPath)
  }

  /** The distinct tokens of a textual column's values, in first-seen order; none for a numeric column. */
  private def tokens(x: Extent): Seq[String] =
    if (x.numeric) Nil else x.counts.keys.toSeq.flatMap(Tokenizer.tokens).distinct

  /** The profiles of one table's columns, SEM left empty: SET is the MinHash of the distinct tokens, NL the
    * simhash of the mean `embedding` of those that have one, and the classes are the tokens' `classOf`, each once.
    */
  private def profileTable(tableId: String, columns: Seq[ColumnValues], embedding: String => Option[Array[Float]],
                           classOf: String => Option[String]): Seq[Profile] =
    columns.map { c =>
      val x = new Extent(c.values, cfg)
      val ts = tokens(x)
      val vecs = ts.flatMap(embedding)
      val sigs = if (ts.isEmpty) IndexedSeq.empty else IndexedSeq(MinHash.signature(ts), Array.emptyLongArray,
        if (vecs.isEmpty) Array.emptyLongArray else RandomProjection.signature(Embeddings.mean(vecs)))
      Profile(tableId, c.colIdx, c.name, x.n, x.nNumeric, x.numeric, sigs, ts.flatMap(classOf).distinct)
    }

  /** `profiles` with SEM hashed from their classes minus the common ones. TUS discounts statistically common
    * annotations (its semantic unionability is a significance test, not raw overlap); we emulate the discount by
    * dropping the classes of more than 20% of the profiles with signatures — without it, ubiquitous classes (City,
    * GivenName) make every pair of textual columns SEM-identical and the ranking degenerates.
    */
  private def withSem(profiles: Seq[Profile]): IndexedSeq[Profile] = {
    val textual = profiles.filter(_.sigs.nonEmpty)
    val common = textual.flatMap(_.classes).groupMapReduce(identity)(_ => 1)(_ + _)
      .collect { case (cls, n) if n > 0.2 * math.max(1, textual.size) => cls }.toSet
    profiles.toIndexedSeq.map { p =>
      val kept = p.classes.filterNot(common)
      if (p.sigs.isEmpty || kept.isEmpty) p else p.copy(sigs = p.sigs.updated(1, MinHash.signature(kept)))
    }
  }

  /** Batched query with stored target signatures (lake members). */
  def queryAll(idx: TusIndexes, targetIds: Seq[String]): TusResult = {
    val answers = targetIds.distinct.toIndexedSeq
      .map(t => searchTable(idx, t, idx.attrs.filter(_.tableId == t), Set(t)))
    TusResult(answers.flatMap(_.ranked), answers.flatMap(_.aligned))
  }

  /** Single-target query: the target is profiled on the driver by the index's kernel, with the lake's embeddings
    * and its distinct tokens looked up in the KB over one connection (the paper's TUS query-time leak); the
    * common-class discount is taken over its own attributes. `excludeId` drops a lake table (e.g. the lake copy of
    * the target) at the probe, as does the lake table whose id equals `target.id`: a table is never its own answer.
    */
  def queryTable(idx: TusIndexes, target: LakeTable, excludeId: Option[String] = None): TusResult = {
    val cols = target.columns.zipWithIndex.map { case (c, i) => ColumnValues(i, c.name, c.values) }
    val classes = SyntheticKB.mapTokens(cols.flatMap(c => tokens(new Extent(c.values, cfg))), idx.kbPath)
    searchTable(idx, target.id, withSem(profileTable(target.id, cols, idx.embeddings.get, classes.get))
      .filter(_.sigs.nonEmpty), excludeId.toSet + target.id)
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
  private def searchTable(idx: TusIndexes, tTable: String, ts: IndexedSeq[Profile], exclude: Set[String]): TusResult = {
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
