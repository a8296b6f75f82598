package repro.core

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

  /** Result of one (batched) discovery query, as local DataFrames.
    *  - ranking:     t_table, s_table, dN..dD, score, rank (1 = most related)
    *  - alignments:  t_table, t_col, s_table, s_col, best_dist
    *  - tablePairs:  t_table, s_table — "some index relates S to T", the
    *                 Algorithm 3 guard set
    */
  final case class QueryResult(ranking: DataFrame, alignments: DataFrame, tablePairs: DataFrame)

  /** Distance from two signatures given the evidence type: Jaccard estimate
    * for ℕ/𝕍/𝔽, cosine estimate for 𝔼, both mapped to [0,1] distances.
    */
  def distance(evidence: String, a: Array[Long], b: Array[Long]): Double =
    if (evidence == Evidence.E) math.min(1.0, math.max(0.0, 1.0 - RandomProjection.estimateCosine(a, b)))
    else 1.0 - MinHash.estimateJaccard(a, b)

  /** Build the lake indexes on Spark and collect their serving form. */
  def index(spark: SparkSession, lakeLong: DataFrame, cfg: D3LConfig = D3LConfig()): LakeIndexes = {
    val idx = FeatureExtraction.extract(spark, lakeLong, cfg).cacheAll()
    idx.serving.embeddings
    idx
  }

  /** Batched query: each of `targetIds` (lake members) against the whole
    * lake, reusing their stored signatures; self-matches excluded.
    */
  def queryAll(spark: SparkSession, idx: LakeIndexes, targetIds: Seq[String],
               cfg: D3LConfig = D3LConfig()): QueryResult = {
    val lake = idx.serving
    search(spark, lake.tables(targetIds), lake.subjects, lake, cfg)
  }

  /** Single-target query for a table that may not be in the lake: features
    * are extracted on the driver (the paper's query-time representation
    * cost) with the lake's embeddings. `excludeId` drops a lake table (e.g.
    * the lake copy of the target) before weighting and ranking.
    */
  def queryTable(spark: SparkSession, idx: LakeIndexes, target: LakeTable,
                 cfg: D3LConfig = D3LConfig(), excludeId: Option[String] = None): QueryResult = {
    val lake = idx.serving
    val t = ServingIndex.of(Seq(FeatureExtraction.extractTable(target, cfg, lake.embeddings.get)))
    search(spark, t.attrs, t.subjects, lake, cfg, excludeId.toSet)
  }

  /** Target-side indexes vs lake-side indexes, both served from the driver. */
  def queryWith(spark: SparkSession, t: LakeIndexes, s: LakeIndexes, cfg: D3LConfig): QueryResult =
    search(spark, t.serving.attrs, t.serving.subjects, s.serving, cfg)

  /** One attribute pair with its distance under one evidence type. */
  private final case class Pair(evidence: String, t: ServedAttr, s: ServedAttr, dist: Double)

  /** The query pipeline: `targets` (with subject attributes `tSubjects`)
    * against `lake`. Tables in `exclude`, and every target's own table, are
    * dropped at the probe, before any weighting.
    */
  private def search(spark: SparkSession, targets: Seq[ServedAttr], tSubjects: Set[String],
                     lake: ServingIndex, cfg: D3LConfig, exclude: Set[String] = Set.empty): QueryResult = {
    // ---- LSH probe: a shared (evidence, band, bucket) = candidate pair -----
    val text = mutable.ArrayBuffer.empty[Pair]
    targets.foreach { t =>
      val seen = mutable.HashSet.empty[(String, String)]
      t.buckets.foreach { k =>
        lake.probe(k).foreach { s =>
          if (s.tableId != t.tableId && !exclude.contains(s.tableId) && seen.add((k.evidence, s.attr)))
            for (a <- t.signatures.get(k.evidence); b <- s.signatures.get(k.evidence))
              text += Pair(k.evidence, t, s, distance(k.evidence, a, b))
        }
      }
    }
    val tablePairs = text.iterator.map(p => (p.t.tableId, p.s.tableId)).distinct.toVector

    // ---- Algorithm 2: guarded KS distances for numeric pairs ---------------
    val saRelated = text.iterator
      .filter(p => tSubjects.contains(p.t.attr) && lake.isSubject(p.s))
      .map(p => (p.t.tableId, p.s.tableId)).toSet
    val nfAttrPairs = text.iterator
      .filter(p => p.evidence == Evidence.N || p.evidence == Evidence.F)
      .map(p => (p.t.attr, p.s.attr)).toSet
    val tNumeric = targets.filter(_.sample.isDefined).groupBy(_.tableId)
    val numeric = tablePairs.flatMap { case (tt, st) =>
      val sa = saRelated.contains((tt, st))
      for {
        t <- tNumeric.getOrElse(tt, Nil)
        s <- lake.numeric(st)
        if sa || nfAttrPairs.contains((t.attr, s.attr))
      } yield Pair(Evidence.D, t, s, KolmogorovSmirnov.statisticSorted(t.sample.get, s.sample.get))
    }
    val pairs = (text ++ numeric).toIndexedSeq

    // ---- Eq. 2: CCDF weights over R_t per (evidence, target attribute) ----
    val w = new Array[Double](pairs.size)
    pairs.indices.groupBy(i => (pairs(i).evidence, pairs(i).t.attr)).valuesIterator.foreach { is =>
      Ccdf.weights(is.map(pairs(_).dist)).iterator.zip(is).foreach { case (wi, i) => w(i) = wi }
    }

    // ---- Eq. 1: per-(table pair, evidence) weighted mean -------------------
    val nEv = Evidence.all.size
    val evIdx = Evidence.all.zipWithIndex.toMap
    val sums = mutable.LinkedHashMap.empty[(String, String), Array[Double]] // Σw·d then Σw
    pairs.indices.foreach { i =>
      val p = pairs(i)
      val acc = sums.getOrElseUpdate((p.t.tableId, p.s.tableId), new Array[Double](2 * nEv))
      val e = evIdx(p.evidence)
      acc(e) += w(i) * p.dist
      acc(nEv + e) += w(i)
    }

    // ---- Eq. 3: weighted Euclidean distance to the origin, then rank -------
    val ew = Evidence.all.map(cfg.evidenceWeights).toIndexedSeq
    val wSum = ew.sum
    val scored = sums.toSeq.map { case ((tt, st), acc) =>
      val d = (0 until nEv).map(e => if (acc(nEv + e) > 0) acc(e) / acc(nEv + e) else 1.0)
      val score = math.sqrt((0 until nEv).map(e => math.pow(ew(e) * d(e), 2.0)).reduce(_ + _) / wSum)
      (tt, st, d, score)
    }
    val ranking = scored.groupBy(_._1).valuesIterator.flatMap { rows =>
      rows.sortBy(r => (r._4, r._2))(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.String))
        .zipWithIndex.map { case ((tt, st, d, score), i) => Row.fromSeq(Seq[Any](tt, st) ++ d :+ score :+ (i + 1)) }
    }.toVector

    // ---- attribute alignments (coverage / join-path machinery) -------------
    // An attribute pair counts as *aligned* only when some evidence distance
    // reaches the LSH threshold (dist ≤ 1−τ): the paper's LSH-Forest lookup
    // at τ=0.7 would not return weaker pairs, whereas our multi-level
    // banding deliberately surfaces them for the table ranking. Coverage and
    // attribute precision (§V-E) are defined over returned alignments, so
    // they use the thresholded set.
    val alignments = pairs
      .groupMapReduce(p => (p.t.tableId, p.t.colIdx, p.s.tableId, p.s.colIdx))(_.dist)(math.min)
      .iterator.collect { case ((tt, tc, st, sc), d) if d <= 1.0 - cfg.tau => Row(tt, tc, st, sc, d) }
      .toVector

    QueryResult(local(spark, rankingSchema, ranking), local(spark, alignmentSchema, alignments),
      local(spark, pairSchema, tablePairs.map { case (tt, st) => Row(tt, st) }))
  }

  private val rankingSchema = StructType(
    Seq(StructField("t_table", StringType, nullable = false), StructField("s_table", StringType, nullable = false)) ++
      Evidence.all.map(e => StructField(s"d$e", DoubleType, nullable = false)) ++
      Seq(StructField("score", DoubleType, nullable = false), StructField("rank", IntegerType, nullable = false)))

  private val alignmentSchema = StructType(Seq(
    StructField("t_table", StringType, nullable = false), StructField("t_col", IntegerType, nullable = false),
    StructField("s_table", StringType, nullable = false), StructField("s_col", IntegerType, nullable = false),
    StructField("best_dist", DoubleType, nullable = false)))

  private val pairSchema = StructType(Seq(
    StructField("t_table", StringType, nullable = false), StructField("s_table", StringType, nullable = false)))

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
