package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.types._
import repro.lake.LakeTable
import repro.lsh.{MinHash, RandomProjection}
import repro.stats.{Ccdf, KolmogorovSmirnov}

/** The D³L discovery pipeline (§III): LSH bucket probe → per-pair distance
  * estimates → CCDF weights (Eq. 2) → per-(table, evidence) aggregation
  * (Eq. 1) → weighted Euclidean score (Eq. 3) → ranking.
  *
  * Indexes are built on Spark ([[index]]); queries run in plain Scala
  * against the driver-resident [[ServingIndex]] and start no Spark job.
  */
object D3L {

  /** Result of one (batched) discovery query, as local DataFrames, each
    * built on its first access (a caller that reads only `ranking` pays
    * for no other frame):
    *  - ranking:     t_table, s_table, dN..dD, score, rank (1 = most related)
    *  - alignments:  t_table, t_col, s_table, s_col, best_dist
    *  - tablePairs:  t_table, s_table — "some index relates S to T", the
    *                 Algorithm 3 guard set: every candidate table is scored,
    *                 so these are the ranking's pairs
    */
  final class QueryResult(ranking0: => DataFrame, alignments0: => DataFrame, tablePairs0: => DataFrame) {
    lazy val ranking: DataFrame = ranking0
    lazy val alignments: DataFrame = alignments0
    lazy val tablePairs: DataFrame = tablePairs0
  }

  object QueryResult {
    def apply(ranking: => DataFrame, alignments: => DataFrame, tablePairs: => DataFrame): QueryResult =
      new QueryResult(ranking, alignments, tablePairs)
  }

  private val EvN = Evidence.all.indexOf(Evidence.N)
  private val EvF = Evidence.all.indexOf(Evidence.F)
  private val EvE = Evidence.all.indexOf(Evidence.E)
  private val EvD = Evidence.all.indexOf(Evidence.D)

  /** Distance of two served signatures of evidence ordinal `e`: Jaccard
    * estimate for ℕ/𝕍/𝔽, cosine estimate of the packed bits for 𝔼, both
    * mapped to [0,1] distances.
    */
  private def distance(e: Int, a: Array[Long], b: Array[Long]): Double =
    if (e == EvE) math.min(1.0, math.max(0.0, 1.0 - RandomProjection.estimateCosinePacked(a, b)))
    else 1.0 - MinHash.estimateJaccard(a, b)

  /** Build the lake's index on Spark into its driver-resident form. */
  def index(spark: SparkSession, lakeLong: DataFrame, cfg: D3LConfig = D3LConfig()): LakeIndexes =
    FeatureExtraction.extract(spark, lakeLong, cfg)

  /** Batched query: each of `targetIds` (lake members) against the whole
    * lake, reusing their stored signatures; self-matches excluded.
    */
  def queryAll(spark: SparkSession, idx: LakeIndexes, targetIds: Seq[String],
               cfg: D3LConfig = D3LConfig()): QueryResult = {
    val lake = idx.serving
    search(spark, lake, lake.tables(targetIds), lake, cfg)
  }

  /** Single-target query for a table that may not be in the lake: features
    * are extracted on the driver (the paper's query-time representation
    * cost) with the lake's embeddings. `excludeId` drops a lake table (e.g.
    * the lake copy of the target) before weighting and ranking. The lake
    * table whose id equals `target.id`, if any, is always dropped too, with
    * or without `excludeId`: a table is never its own answer.
    */
  def queryTable(spark: SparkSession, idx: LakeIndexes, target: LakeTable,
                 cfg: D3LConfig = D3LConfig(), excludeId: Option[String] = None): QueryResult = {
    val lake = idx.serving
    val t = ServingIndex.of(Seq(FeatureExtraction.extractTable(target, cfg, idx.embeddings.get)))
    search(spark, t, t.attrs, lake, cfg, excludeId.toSet)
  }

  /** Target-side indexes vs lake-side indexes, both served from the driver. */
  def queryWith(spark: SparkSession, t: LakeIndexes, s: LakeIndexes, cfg: D3LConfig): QueryResult =
    search(spark, t.serving, t.serving.attrs, s.serving, cfg)

  /** Answer rows of one target table. */
  private final case class TableAnswer(ranking: Seq[Row], alignments: Seq[Row])

  /** The query pipeline: `targets`, attributes of the index `from`, against
    * `lake`. Tables in `exclude`, and every target's own table, are dropped
    * at the probe, before any weighting. Every step after the probe is
    * independent per target table, so the tables are answered concurrently
    * on the driver's cores and their rows concatenated in target order.
    */
  private def search(spark: SparkSession, from: ServingIndex, targets: Seq[ServedAttr],
                     lake: ServingIndex, cfg: D3LConfig, exclude: Set[String] = Set.empty): QueryResult = {
    val excluded = lake.tableIds.map(exclude.contains).toArray
    val ew = Evidence.all.map(cfg.evidenceWeights).toArray
    val byTable = targets.groupBy(_.tableId)
    val answers = onCores(targets.map(_.tableId).distinct) { id =>
      searchTable(from, byTable(id).toIndexedSeq, lake, excluded, ew, cfg.tau)
    }
    lazy val ranking = local(spark, rankingSchema, answers.flatMap(_.ranking))
    QueryResult(ranking, local(spark, alignmentSchema, answers.flatMap(_.alignments)),
      ranking.select("t_table", "s_table"))
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
  private def searchTable(from: ServingIndex, ts: IndexedSeq[ServedAttr], lake: ServingIndex,
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
    val seen = new Array[Int](Evidence.indexed.size * nAttrs) // (evidence, lake attr) → target position + 1
    val tEnd = new Array[Int](ts.size)
    ts.indices.foreach { ti =>
      val t = ts(ti)
      Evidence.indexed.indices.foreach { e =>
        val base = e * nAttrs
        lake.bucketsOf(from, t, e).foreach { b =>
          val post = lake.probe(b)
          var i = 0
          while (i < post.length) {
            val si = post(i)
            if (seen(base + si) != ti + 1) {
              seen(base + si) = ti + 1
              val s = lake.attrs(si)
              if (s.table != self && !excluded(s.table)) {
                pairs.add(e, ti, si, distance(e, t.sigs(e), s.sigs(e)))
                if (slot(s.table) < 0) { slot(s.table) = cands.size; cands += s.table; saRelated += false }
                if (t.subject && s.subject) saRelated(slot(s.table)) = true
              }
            }
            i += 1
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
    val ranking = scored
      .sortBy(r => (r._3, r._1))(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.String))
      .zipWithIndex.map { case ((st, d, score), i) => Row.fromSeq(Seq[Any](tableId, st) ++ d :+ score :+ (i + 1)) }

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
    val alignments = best.keys.toVector.sorted.map { k =>
      val (t, s) = (ts((k / nAttrs).toInt), lake.attrs((k % nAttrs).toInt))
      Row(tableId, t.colIdx, s.tableId, s.colIdx, best(k))
    }

    TableAnswer(ranking, alignments)
  }

  private val rankingSchema = StructType(
    Seq(StructField("t_table", StringType, nullable = false), StructField("s_table", StringType, nullable = false)) ++
      Evidence.all.map(e => StructField(s"d$e", DoubleType, nullable = false)) ++
      Seq(StructField("score", DoubleType, nullable = false), StructField("rank", IntegerType, nullable = false)))

  private val alignmentSchema = StructType(Seq(
    StructField("t_table", StringType, nullable = false), StructField("t_col", IntegerType, nullable = false),
    StructField("s_table", StringType, nullable = false), StructField("s_col", IntegerType, nullable = false),
    StructField("best_dist", DoubleType, nullable = false)))

  /** A local DataFrame: filtering and collecting it runs on the driver
    * without a Spark job.
    */
  private def local(spark: SparkSession, schema: StructType, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava, schema)

  /** Ranking that uses a single evidence type only (Experiment 1): tables
    * with no such evidence rank last (distance 1).
    */
  def rankBySingleEvidence(ranking: DataFrame, evidence: String): DataFrame = {
    val spark = ranking.sparkSession
    import spark.implicits._
    ranking
      .withColumn("score1", col(s"d$evidence"))
      .withColumn("rank", row_number().over(
        Window.partitionBy("t_table").orderBy($"score1".asc, $"s_table".asc)))
      .drop("score1")
  }
}
