package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{D3LConfig, FeatureExtraction}
import repro.core.FeatureExtraction.{ColumnValues, Extent, rejectingMalformed}
import repro.lake.LakeTable
import repro.lsh.{BucketIndex, MinHash, RandomProjection}
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
  * [[SyntheticKB]] one by one, which is TUS's reproduced query-time cost. The
  * index holds what a query reads; Exp. 7 builds Table II's frames of it.
  */
object Tus {

  /** One column's catalog figures and, for a textual column with a token, its signature per measure (in
    * [[measures]] order, empty when it has none) and its tokens' KB classes; no signature for other columns.
    */
  final case class Profile(tableId: String, colIdx: Int, colName: String, nValues: Long, nNumeric: Long,
                           isNumeric: Boolean, sigs: IndexedSeq[Array[Long]], classes: Seq[String]) {
    val attr: String = FeatureExtraction.attrId(tableId, colIdx)
  }

  /** TUS's index on the driver: every column's [[Profile]], in (table id, column) order, the token → vector model
    * of the NL signatures and the KB a query target's tokens are looked up in; nothing stays persisted in Spark.
    */
  final class TusIndexes private[Tus] (
      val profiles: IndexedSeq[Profile],
      val embeddings: Map[String, Array[Float]],
      val kbPath: String,
  ) {
    /** The served attributes: the profiles with signatures. */
    val attrs: IndexedSeq[Profile] = profiles.filter(_.sigs.nonEmpty)
    /** The LSH indexes: `attrs`' buckets, one group per measure ordinal. */
    private[Tus] val lsh: BucketIndex =
      BucketIndex(BucketIndex.levels(measures, Nl), attrs.size)((i, m) => attrs(i).sigs(m))
  }

  /** Lake table `sTable` as the `rank`-th most unionable (from 1) with target `tTable`. */
  final case class Ranked(tTable: String, sTable: String, score: Double, rank: Int)

  /** Column `sCol` of `sTable` aligned with column `tCol` of `tTable`, at the max probability over the measures. */
  final case class Aligned(tTable: String, tCol: Int, sTable: String, sCol: Int, bestP: Double)

  /** Rankings (each in rank order) and alignments of every target, in target order. */
  final case class TusResult(ranked: IndexedSeq[Ranked], aligned: IndexedSeq[Aligned])

  val Set_ = "SET"; val Sem = "SEM"; val Nl = "NL"
  val measures: Seq[String] = Seq(Set_, Sem, Nl)

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
    new TusIndexes(withSem(profiles), embeddings, kbPath)
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

  /** Batched query of tables of the index, probed by their own buckets. */
  def queryAll(idx: TusIndexes, targetIds: Seq[String]): TusResult = {
    val ids = targetIds.distinct.toIndexedSeq
    val missing = ids.filterNot(idx.profiles.map(_.tableId).toSet)
    require(missing.isEmpty, s"tables not in the index: ${missing.mkString(", ")}")
    val answers = ids.map { t =>
      val ts = idx.attrs.indices.filter(idx.attrs(_).tableId == t)
      searchTable(idx, t, ts.map(idx.attrs), ts.map(idx.lsh.bucketsOf), Set(t))
    }
    TusResult(answers.flatMap(_.ranked), answers.flatMap(_.aligned))
  }

  /** Single-target query: the target is profiled on the driver by the index's kernel, with the lake's embeddings
    * and its distinct tokens looked up in the KB over one connection (the paper's TUS query-time leak); the
    * common-class discount is taken over its own attributes. `excludeId` drops a lake table (e.g. the lake copy of
    * the target) at the probe, as does the lake table whose id equals `target.id`: a table is never its own answer.
    * A null or empty `target.id` is rejected.
    */
  def queryTable(idx: TusIndexes, target: LakeTable, excludeId: Option[String] = None): TusResult = {
    FeatureExtraction.requireTargetId(target.id)
    val cols = target.columns.zipWithIndex.map { case (c, i) => ColumnValues(i, c.name, c.values) }
    val classes = SyntheticKB.mapTokens(cols.flatMap(c => tokens(new Extent(c.values, cfg))), idx.kbPath)
    val ts = withSem(profileTable(target.id, cols, idx.embeddings.get, classes.get)).filter(_.sigs.nonEmpty)
    searchTable(idx, target.id, ts, ts.map(p => Array.tabulate(measures.size)(m => idx.lsh.resolve(m, p.sigs(m)))),
      excludeId.toSet + target.id)
  }

  /** Target table `tTable` with textual attributes `ts`, in column order, and their `buckets` per measure.
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
  private def searchTable(idx: TusIndexes, tTable: String, ts: IndexedSeq[Profile],
                          buckets: IndexedSeq[Array[Array[Int]]], exclude: Set[String]): TusResult = {
    val n = idx.attrs.size
    val pairP = scala.collection.mutable.LongMap.empty[Double] // target position · n + lake position → probability
    val seen = new Array[Int](n) // lake position → mark of the last (target attribute, measure) walk meeting it
    for (ti <- ts.indices; m <- measures.indices) {
      val found = new scala.collection.mutable.ArrayBuilder.ofInt
      idx.lsh.candidates(buckets(ti)(m), seen, ti * measures.size + m + 1)(si =>
        if (!exclude.contains(idx.attrs(si).tableId)) found.addOne(si))
      val cands = found.result()
      val sims = cands.map(si => idx.lsh.similarity(m, ts(ti).sigs(m), idx.attrs(si).sigs(m)))
      val sorted = sims.sorted(Ordering.Double.TotalOrdering).toArray
      cands.indices.foreach { j =>
        val k = ti.toLong * n + cands(j)
        pairP(k) = math.max(pairP.getOrElse(k, 0.0), Ccdf.upperBound(sorted, sims(j)).toDouble / sorted.length)
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
