package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.lake.LakeTable
import repro.stats.{Ccdf, KolmogorovSmirnov}

/** The D³L discovery pipeline (§III): LSH bucket probe → per-pair distance
  * estimates → CCDF weights (Eq. 2) → per-(table, evidence) aggregation
  * (Eq. 1) → weighted Euclidean score (Eq. 3) → ranking.
  *
  * Indexes are built on Spark ([[index]]); queries run in plain Scala
  * against the driver-resident [[ServingIndex]], start no Spark job and
  * answer with plain values ([[Ranked]], [[Aligned]]).
  */
object D3L {

  /** Lake table `sTable` as a candidate for target `tTable`: its Eq. 1
    * distances in [[Evidence.all]] order (ℕ, 𝕍, 𝔽, 𝔼, 𝔻), its Eq. 3 score
    * and its rank among the target's candidates (1 = most related).
    */
  final case class Ranked(tTable: String, sTable: String, dist: ArraySeq[Double], score: Double, rank: Int)

  /** Column `sCol` of `sTable` aligned with column `tCol` of target `tTable`
    * at distance `dist`, the smallest over the evidence types (≤ 1−τ).
    */
  final case class Aligned(tTable: String, tCol: Int, sTable: String, sCol: Int, dist: Double)

  /** Result of one (batched) discovery query: the ranking and the
    * alignments of every target, in target order, each target's ranking in
    * rank order. The Algorithm 3 guard set ("some index relates S to T") is
    * the ranking's (tTable, sTable) pairs: every candidate table is scored.
    *
    * The frames are local DataFrame views of these values, for code that
    * wants Spark (perfbench), each built on its first access:
    *  - ranking:     t_table, s_table, dN..dD, score, rank
    *  - alignments:  t_table, t_col, s_table, s_col, best_dist
    *  - tablePairs:  t_table, s_table
    */
  final class QueryResult private[core] (spark: SparkSession, val ranked: IndexedSeq[Ranked],
                                         val aligned: IndexedSeq[Aligned]) {
    lazy val ranking: DataFrame = spark.createDataFrame(
      ranked.map(r => Row.fromSeq(Seq[Any](r.tTable, r.sTable) ++ r.dist :+ r.score :+ r.rank)).asJava,
      rankingSchema)
    lazy val alignments: DataFrame = spark.createDataFrame(
      aligned.map(a => Row(a.tTable, a.tCol, a.sTable, a.sCol, a.dist)).asJava, alignmentSchema)
    lazy val tablePairs: DataFrame = ranking.select("t_table", "s_table")
  }

  private val rankingSchema = StructType(
    Seq(StructField("t_table", StringType, nullable = false), StructField("s_table", StringType, nullable = false)) ++
      Evidence.all.map(e => StructField(s"d$e", DoubleType, nullable = false)) ++
      Seq(StructField("score", DoubleType, nullable = false), StructField("rank", IntegerType, nullable = false)))

  private val alignmentSchema = StructType(Seq(
    StructField("t_table", StringType, nullable = false), StructField("t_col", IntegerType, nullable = false),
    StructField("s_table", StringType, nullable = false), StructField("s_col", IntegerType, nullable = false),
    StructField("best_dist", DoubleType, nullable = false)))

  private val EvN = Evidence.all.indexOf(Evidence.N)
  private val EvF = Evidence.all.indexOf(Evidence.F)
  private val EvD = Evidence.all.indexOf(Evidence.D)

  /** Build the lake's index on Spark into its driver-resident form, its
    * [[ServingIndex]] included.
    */
  def index(spark: SparkSession, lakeLong: DataFrame, cfg: D3LConfig = D3LConfig()): LakeIndexes = {
    val idx = FeatureExtraction.extract(spark, lakeLong, cfg)
    idx.serving
    idx
  }

  /** Batched query: each of `targetIds` (lake members) against the whole
    * lake, reusing their stored signatures; self-matches excluded.
    */
  def queryAll(spark: SparkSession, idx: LakeIndexes, targetIds: Seq[String],
               cfg: D3LConfig = D3LConfig()): QueryResult = {
    val lake = idx.serving
    search(spark, lake.tables(targetIds), lake, cfg)
  }

  /** Single-target query for a table that may not be in the lake: features
    * are extracted on the driver (the paper's query-time representation
    * cost) with the lake's embeddings. `excludeId` drops a lake table (e.g.
    * the lake copy of the target) before weighting and ranking. The lake
    * table whose id equals `target.id` is always dropped too: a table is
    * never its own answer. A null or empty `target.id` is rejected.
    */
  def queryTable(spark: SparkSession, idx: LakeIndexes, target: LakeTable,
                 cfg: D3LConfig = D3LConfig(), excludeId: Option[String] = None): QueryResult = {
    FeatureExtraction.requireTargetId(target.id)
    val features = FeatureExtraction.extractTable(target, cfg, idx.embeddings.get)
    search(spark, idx.serving.targets(Seq(features)), idx.serving, cfg, excludeId.toSet)
  }

  /** Every table of `t` (extracted with `s`'s embeddings) as a target
    * against the lake `s`.
    */
  def queryWith(spark: SparkSession, t: LakeIndexes, s: LakeIndexes, cfg: D3LConfig): QueryResult =
    search(spark, s.serving.targets(t.features), s.serving, cfg)

  /** Answer of one target table. */
  private final case class TableAnswer(ranked: IndexedSeq[Ranked], aligned: IndexedSeq[Aligned])

  /** The query pipeline: `targets`, whose buckets are `lake`'s bucket ids,
    * against `lake`. Tables in `exclude`, and every target's own table, are dropped
    * at the probe, before any weighting. Every step after the probe is
    * independent per target table, so the tables are answered concurrently
    * on the driver's cores and their answers concatenated in target order.
    */
  private def search(spark: SparkSession, targets: Seq[ServedAttr],
                     lake: ServingIndex, cfg: D3LConfig, exclude: Set[String] = Set.empty): QueryResult = {
    val excluded = lake.tableIds.map(exclude.contains).toArray
    val ew = Evidence.all.map(cfg.evidenceWeights).toArray
    val byTable = targets.groupBy(_.tableId)
    val answers = onCores(targets.map(_.tableId).distinct) { id =>
      searchTable(byTable(id).toIndexedSeq, lake, excluded, ew, cfg.tau)
    }
    new QueryResult(spark, answers.flatMap(_.ranked).toIndexedSeq, answers.flatMap(_.aligned).toIndexedSeq)
  }

  /** Workers for the target tables of batched queries, one per core. */
  private lazy val pool = new ForkJoinPool(Runtime.getRuntime.availableProcessors)

  /** `xs.map(f)` on the driver's cores, in `xs`'s order; a single element
    * runs on the caller's thread.
    */
  private def onCores[A, B](xs: Seq[A])(f: A => B): Seq[B] =
    if (xs.lengthCompare(1) <= 0) xs.map(f)
    else xs.map(x => pool.submit(new Callable[B] { def call(): B = f(x) })).map(_.join())

  /** Candidate pairs of one target table as parallel arrays: evidence
    * ordinal, target (position among the table's attributes), lake
    * attribute id and distance.
    */
  private final class Pairs {
    var size = 0
    var ev = new Array[Int](256)
    var t = new Array[Int](256)
    var s = new Array[Int](256)
    var dist = new Array[Double](256)

    def add(e: Int, ti: Int, si: Int, d: Double): Unit = {
      if (size == ev.length) {
        ev = java.util.Arrays.copyOf(ev, 2 * size)
        t = java.util.Arrays.copyOf(t, 2 * size)
        s = java.util.Arrays.copyOf(s, 2 * size)
        dist = java.util.Arrays.copyOf(dist, 2 * size)
      }
      ev(size) = e; t(size) = ti; s(size) = si; dist(size) = d
      size += 1
    }
  }

  /** The pipeline for the attributes `ts` of one target table. Pairs are
    * produced per target attribute and evidence type in turn, so each Eq. 2
    * group R_t is one contiguous run, and every per-(candidate table,
    * evidence) sum of Eq. 1 adds its terms in the same order whether the
    * table is queried alone or in a batch.
    */
  private def searchTable(ts: IndexedSeq[ServedAttr], lake: ServingIndex,
                          excluded: Array[Boolean], ew: Array[Double], tau: Double): TableAnswer = {
    val tableId = ts.head.tableId
    val self = lake.tableOf(tableId)
    val nAttrs = lake.attrs.size
    val pairs = new Pairs
    // Candidate lake tables in first-seen order; slot(table) = position or -1.
    val cands = mutable.ArrayBuffer.empty[Int]
    val saRelated = mutable.ArrayBuffer.empty[Boolean]
    val slot = Array.fill(lake.tableIds.size)(-1)

    // ---- LSH probe: a shared (evidence, band, bucket) = candidate pair -----
    val seen = new Array[Int](nAttrs) // lake attr → mark of the last (target attr, evidence) walk meeting it
    val tEnd = new Array[Int](ts.size)
    ts.indices.foreach { ti =>
      val t = ts(ti)
      Evidence.indexed.indices.foreach { e =>
        lake.lsh.candidates(t.buckets(e), seen, ti * Evidence.indexed.size + e + 1) { si =>
          val s = lake.attrs(si)
          if (s.table != self && !excluded(s.table)) {
            pairs.add(e, ti, si, 1.0 - lake.lsh.similarity(e, t.sigs(e), s.sigs(e))) // a [0, 1] distance
            if (slot(s.table) < 0) { slot(s.table) = cands.size; cands += s.table; saRelated += false }
            if (t.subject && s.subject) saRelated(slot(s.table)) = true
          }
        }
      }
      tEnd(ti) = pairs.size
    }

    // ---- Algorithm 2: guarded KS distances for numeric pairs ---------------
    val nf = new Array[Int](nAttrs) // lake attr → target position + 1 when an ℕ/𝔽 pair links them
    ts.indices.foreach { ti =>
      ts(ti).sample.foreach { tSample =>
        (if (ti == 0) 0 else tEnd(ti - 1)).until(tEnd(ti)).foreach { i =>
          if (pairs.ev(i) == EvN || pairs.ev(i) == EvF) nf(pairs.s(i)) = ti + 1
        }
        cands.indices.foreach { c =>
          lake.numeric(cands(c)).foreach { si =>
            if (saRelated(c) || nf(si) == ti + 1)
              pairs.add(EvD, ti, si, KolmogorovSmirnov.statisticSorted(tSample, lake.attrs(si).sample.get))
          }
        }
      }
    }

    // ---- Eq. 2: CCDF weights over R_t per (evidence, target attribute) ----
    val n = pairs.size
    val w = new Array[Double](n)
    var lo = 0
    while (lo < n) {
      var hi = lo + 1
      while (hi < n && pairs.ev(hi) == pairs.ev(lo) && pairs.t(hi) == pairs.t(lo)) hi += 1
      Ccdf.weights(pairs.dist, lo, hi, w)
      lo = hi
    }

    // ---- Eq. 1: per-(candidate table, evidence) weighted mean --------------
    val nEv = Evidence.all.size
    val acc = new Array[Double](2 * nEv * cands.size) // per candidate: Σw·d, then Σw, by evidence
    (0 until n).foreach { i =>
      val o = 2 * nEv * slot(lake.attrs(pairs.s(i)).table) + pairs.ev(i)
      acc(o) += w(i) * pairs.dist(i)
      acc(o + nEv) += w(i)
    }

    // ---- Eq. 3: weighted Euclidean distance to the origin, then rank -------
    val wSum = ew.sum
    val scored = cands.indices.map { c =>
      val o = 2 * nEv * c
      val d = Array.tabulate(nEv)(e => if (acc(o + nEv + e) > 0) acc(o + e) / acc(o + nEv + e) else 1.0)
      var sq = 0.0
      (0 until nEv).foreach(e => sq += math.pow(ew(e) * d(e), 2.0))
      (lake.tableIds(cands(c)), d, math.sqrt(sq / wSum))
    }
    val ranked = scored
      .sortBy(r => (r._3, r._1))(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.String))
      .zipWithIndex.map { case ((st, d, score), i) => Ranked(tableId, st, ArraySeq.unsafeWrapArray(d), score, i + 1) }

    // ---- attribute alignments (coverage / join-path machinery) -------------
    // An attribute pair counts as *aligned* only when some evidence distance
    // reaches the LSH threshold (dist ≤ 1−τ): the paper's LSH-Forest lookup
    // at τ=0.7 would not return weaker pairs, whereas our multi-level
    // banding deliberately surfaces them for the table ranking. Coverage and
    // attribute precision (§V-E) are defined over returned alignments, so
    // they use the thresholded set.
    val best = mutable.LongMap.empty[Double] // target position · nAttrs + lake attr → min distance
    (0 until n).foreach { i =>
      if (pairs.dist(i) <= 1.0 - tau) {
        val k = pairs.t(i).toLong * nAttrs + pairs.s(i)
        best.update(k, math.min(best.getOrElse(k, 1.0), pairs.dist(i)))
      }
    }
    val aligned = best.keys.toVector.sorted.map { k =>
      val (t, s) = (ts((k / nAttrs).toInt), lake.attrs((k % nAttrs).toInt))
      Aligned(tableId, t.colIdx, s.tableId, s.colIdx, best(k))
    }

    TableAnswer(ranked, aligned)
  }

  /** Ranking by a single evidence type only (Experiment 1): per target,
    * the candidates ordered by that distance (tables without such evidence
    * have distance 1), ties by table id, ranked 1..n; scores unchanged.
    */
  def rankBySingleEvidence(ranked: Seq[Ranked], evidence: String): Seq[Ranked] = {
    val e = Evidence.all.indexOf(evidence)
    val byTarget = ranked.groupBy(_.tTable)
    ranked.map(_.tTable).distinct.flatMap { t =>
      byTarget(t).sortBy(r => (r.dist(e), r.sTable))(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.String))
        .zipWithIndex.map { case (r, i) => r.copy(rank = i + 1) }
    }
  }
}
