package repro.baselines

import java.util.Arrays.asList
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import scala.collection.mutable
import repro.core.{D3LConfig, FeatureExtraction}
import repro.core.FeatureExtraction.{ColumnValues, Extent, rejectingMalformed}
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.text.{Embeddings, Tokenizer}

/** Aurum baseline (Fernandez et al., ICDE'18), per §V-A of the D³L paper.
  *
  * Two-step process: (1) profile every column — attribute-name q-gram
  * MinHash, content MinHash, TF-IDF-weighted embedding simhash, numeric
  * [min,max] ranges — with a per-table kernel on Spark, built as D³L's index
  * is (one regroup of the lake, two jobs, one collect); (2) build the
  * enterprise knowledge graph (EKG) on the driver by probing the profiles'
  * LSH buckets (edges = attribute pairs with similarity ≥ edge threshold).
  * Queries are in-memory graph lookups in plain Scala that start no Spark
  * job — k-independent, which is why the paper reports a single constant
  * search time for Aurum.
  *
  * Ranking uses the paper's chosen *certainty* strategy: max similarity
  * score across a table's matched attributes (ties: covered-attribute
  * count). `Aurum+J` augments top-k results with join paths over PK/FK
  * candidate edges (high-uniqueness columns with overlapping content) —
  * uniqueness-only joinability, no subject attributes, no target-evidence
  * guard, which is what costs it attribute precision in Experiments 9/11.
  * Its traversal is `JoinPaths.reachable` on `pkfkTableEdges`, unguarded.
  */
object Aurum {

  val An = "AN"; val Ac = "AC"; val At = "AT"

  /** EKG edge: undirected edge between column `aCol` of `aTable` and column
    * `bCol` of `bTable` (`aAttr < bAttr`, attribute ids `table#col`), with
    * its max similarity over the signals.
    */
  final case class Edge(aAttr: String, aTable: String, aCol: Int, bAttr: String, bTable: String, bCol: Int,
                        sim: Double)

  /** One column's profile: catalog statistics, signatures by measure ordinal (AN; then AC and AT for a
    * textual column with a token, AT empty when every token weighs 0) and a numeric column's [min, max].
    */
  final case class Profile(tableId: String, colIdx: Int, colName: String, nValues: Long, nDistinct: Long,
                           nNumeric: Long, isNumeric: Boolean, uniqueness: Double, sigs: Array[Array[Long]],
                           range: Option[(Double, Double)]) {
    val attr: String = FeatureExtraction.attrId(tableId, colIdx)
  }

  /** Aurum's index on the driver: the [[Profile]]s in attribute-id order,
    * the EKG in (aAttr, bAttr) order and the PK/FK table graph of Aurum+J;
    * nothing stays persisted in Spark. The frames are lazy local views of
    * the profiles, for Table II and tests, with the schemas the Spark-SQL
    * profiling had: `catalog` (attr, table_id, col_idx, col_name, n_values,
    * n_distinct, n_numeric, is_numeric, uniqueness), `signatures` (attr,
    * measure, sig, table_id, col_idx) and `buckets` (measure, band, bucket,
    * attr, table_id), the LSH indexes.
    */
  final class AurumIndexes private[Aurum] (
      spark: SparkSession,
      val profiles: IndexedSeq[Profile],
      val edges: IndexedSeq[Edge],
      val pkfkTableEdges: Map[String, Set[String]],
  ) {
    import spark.implicits._

    lazy val catalog: DataFrame = spark.createDataFrame(asList(profiles.map(p => Row(p.attr, p.tableId, p.colIdx,
      p.colName, p.nValues, p.nDistinct, p.nNumeric, p.isNumeric, p.uniqueness)): _*), StructType.fromDDL(
      "attr STRING NOT NULL, table_id STRING, col_idx INT NOT NULL, col_name STRING, n_values BIGINT, " +
      "n_distinct BIGINT NOT NULL, n_numeric BIGINT, is_numeric BOOLEAN, uniqueness DOUBLE"))
    lazy val signatures: DataFrame = signed
      .map { case (p, m) => (p.attr, measures(m), p.sigs(m), p.tableId, p.colIdx) }
      .toDF("attr", "measure", "sig", "table_id", "col_idx")
    lazy val buckets: DataFrame = signed
      .flatMap { case (p, m) =>
        Banding.buckets(p.sigs(m), levels(m)).map { case (band, bucket) => (measures(m), band, bucket, p.attr, p.tableId) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")

    /** Every signature as (profile, measure ordinal). */
    private def signed: Seq[(Profile, Int)] = for (p <- profiles; m <- p.sigs.indices) yield (p, m)

    /** Table id → the EKG edges incident to it. */
    private[Aurum] lazy val incident: Map[String, IndexedSeq[Edge]] =
      edges.flatMap(e => Seq(e.aTable -> e, e.bTable -> e)).groupMap(_._1)(_._2)
  }

  /** Lake table `sTable` ranked `rank` (from 1) for target `tTable` by its certainty `score`, the max
    * similarity of its edges to the target, then by the number `nCov` of target columns they cover.
    */
  final case class Ranked(tTable: String, sTable: String, score: Double, nCov: Int, rank: Int)

  /** Column `sCol` of `sTable` aligned with column `tCol` of `tTable` by EKG edges of max similarity `sim`. */
  final case class Aligned(tTable: String, tCol: Int, sTable: String, sCol: Int, sim: Double)

  /** Rankings (each in rank order) and alignments of every target, in target order. */
  final case class AurumResult(ranked: IndexedSeq[Ranked], aligned: IndexedSeq[Aligned])

  /** The EKG keeps an edge when its best similarity estimate reaches this;
    * the strict τ=0.7 of the LSH layer applies to bucket collision, not edge
    * retention.
    */
  val EdgeThreshold = 0.5

  /** Profile the lake and build the EKG. Profiling is two Spark jobs over one `FeatureExtraction.regroup`, as
    * D³L's build is: the TF-IDF document frequencies, summed per partition before one shuffle by token and
    * broadcast to the per-table kernel ([[profileTable]]), whose output is collected once. A malformed lake is
    * rejected as D³L rejects it.
    */
  def index(spark: SparkSession, lakeLong: DataFrame): AurumIndexes = {
    val tables = FeatureExtraction.regroup(spark, lakeLong)
    // Per token, the number of textual columns holding it; under None, the number holding any token.
    val df = rejectingMalformed(tables.flatMap(_._2.flatMap { c =>
      val tokens = termFrequencies(new Extent(c.values, cfg)).keys.toSeq.map(Some(_))
      if (tokens.isEmpty) Nil else (None +: tokens).map(_ -> 1)
    }).reduceByKey(_ + _).collect().toMap)
    val shipped = spark.sparkContext.broadcast(df)
    val profiles = rejectingMalformed(tables.flatMap { case (id, cols) => profileTable(id, cols, shipped.value) }
      .collect()).sortBy(_.attr).toIndexedSeq
    shipped.destroy()
    val (edges, pkfk) = ekg(profiles)
    new AurumIndexes(spark, profiles, edges, pkfk)
  }

  /** Each token of a textual column's values with its number of occurrences; none for a numeric column. */
  private def termFrequencies(x: Extent): mutable.Map[String, Int] = {
    val tf = mutable.HashMap.empty[String, Int].withDefaultValue(0)
    if (!x.numeric) x.counts.foreach { case (v, k) => Tokenizer.tokens(v).foreach(t => tf(t) += k) }
    tf
  }

  /** The profiles of one table's columns, given the lake's document frequencies `df` (of [[index]]). AN is the
    * MinHash of the name's q-grams, AC of the distinct tokens; AT is the simhash of Σ_t tf(t)·log(n/adf(t))·base(t),
    * n the number of textual columns holding a token (at least 1), log Spark SQL's `StrictMath.log`, each term
    * added in `Float`, in token order.
    */
  private def profileTable(tableId: String, columns: Seq[ColumnValues], df: Map[Option[String], Int]): Seq[Profile] =
    columns.map { c =>
      val x = new Extent(c.values, cfg)
      val tf = termFrequencies(x).toArray.sortBy(_._1)
      val name = MinHash.signature(Tokenizer.qgrams(c.name))
      val sigs = if (tf.isEmpty) Array(name) else {
        val n = df.getOrElse(None, 0).max(1).toDouble
        val acc = new Array[Float](Embeddings.Dim)
        tf.foreach { case (t, k) =>
          val w = k * StrictMath.log(n / df(Some(t)))
          val bv = Embeddings.baseVector(t)
          var i = 0
          while (i < Embeddings.Dim) { acc(i) += (bv(i) * w).toFloat; i += 1 }
        }
        Array(name, MinHash.signature(tf.map(_._1)), RandomProjection.signature(acc))
      }
      lazy val nums = x.counts.keys.flatMap(Tokenizer.parseNumeric)
      val range = Option.when(x.numeric)((nums.reduce(math.min(_, _)), nums.reduce(math.max(_, _))))
      Profile(tableId, c.colIdx, c.name, x.n, x.counts.size, x.nNumeric, x.numeric,
        if (x.n > 0) x.counts.size.toDouble / x.n else 0.0, sigs, range)
    }

  /** D³L's numeric-attribute rule, which Aurum's catalog applies too. */
  private val cfg = D3LConfig()
  private val measures = IndexedSeq(An, Ac, At)
  private val levels = measures.map(m => if (m == At) Banding.simhashLevels else Banding.minhashLevels)

  /** Spark SQL's `greatest` and `least`, which order NaN above every number. */
  private def greatest(x: Double, y: Double): Double = if (x.isNaN || y.isNaN) Double.NaN else math.max(x, y)
  private def least(x: Double, y: Double): Double = if (x.isNaN) y else if (y.isNaN) x else math.min(x, y)

  /** The EKG and the PK/FK table graph of the collected profiles, in attr order. Per measure, every pair of
    * columns of different tables that share an LSH bucket is estimated once (Jaccard, or max(0, cosine) for
    * AT); every pair of numeric columns of different tables with overlapping ranges gets their overlap over
    * the shorter range, capped at 1. A pair keeps its max over these; the edges are the pairs reaching
    * [[EdgeThreshold]], in (aAttr, bAttr) order. The range overlap is computed as in Spark SQL, so ranges
    * reaching ±∞ relate as they did when the EKG was a Spark self-join.
    */
  private def ekg(profiles: IndexedSeq[Profile]): (IndexedSeq[Edge], Map[String, Set[String]]) = {
    val n = profiles.length
    val best = mutable.LongMap.empty[Double] // a · n + b, for columns a < b → max similarity
    def offer(a: Int, b: Int, sim: Double): Unit = {
      val k = a.toLong * n + b
      best(k) = math.max(best.getOrElse(k, sim), sim)
    }

    measures.indices.foreach { m =>
      val sig = profiles.map(p => if (m < p.sigs.length) p.sigs(m) else Array.emptyLongArray)
      val bucketAttrs = Banding.bucketMap(sig, levels(m))
      val seen = Array.fill(n)(-1) // seen(b) == a: pair (a, b) already estimated for this measure
      for (a <- 0 until n; key <- Banding.buckets(sig(a), levels(m)); b <- bucketAttrs(key))
        if (b > a && seen(b) != a && profiles(a).tableId != profiles(b).tableId) {
          seen(b) = a
          offer(a, b, if (measures(m) == At) math.max(0.0, RandomProjection.estimateCosine(sig(a), sig(b)))
                      else MinHash.estimateJaccard(sig(a), sig(b)))
        }
    }

    val numeric = profiles.indices.flatMap(i => profiles(i).range.map(i -> _))
    for (x <- numeric.indices; y <- x + 1 until numeric.size) {
      val ((a, (aLo, aHi)), (b, (bLo, bHi))) = (numeric(x), numeric(y))
      if (profiles(a).tableId != profiles(b).tableId) {
        val ovl = least(aHi, bHi) - greatest(aLo, bLo)
        val sim = greatest(0.0, ovl) / least(greatest(aHi - aLo, 1e-9), greatest(bHi - bLo, 1e-9))
        if (sim > 0 || sim.isNaN) offer(a, b, least(sim, 1.0)) // Spark SQL: NaN > 0
      }
    }

    val pairs = best.toIndexedSeq.sortBy(_._1)
      .map { case (k, sim) => (profiles((k / n).toInt), profiles((k % n).toInt), sim) }
    val edges = pairs.collect { case (a, b, sim) if sim >= EdgeThreshold =>
      Edge(a.attr, a.tableId, a.colIdx, b.attr, b.tableId, b.colIdx, sim)
    }

    // --- PK/FK candidates for Aurum+J ---------------------------------------
    // Uniqueness + *any weak* inclusion evidence, per the paper's account of
    // Aurum's join discovery ("built on uniqueness of values") — not the
    // strong EKG edges, which would make Aurum+J stricter than it really is.
    def pk(p: Profile) = p.uniqueness >= 0.85 && !p.isNumeric
    val pkfk = pairs
      .collect { case (a, b, sim) if sim >= 0.15 && (pk(a) || pk(b)) => Seq(a.tableId -> b.tableId, b.tableId -> a.tableId) }
      .flatten.groupMap(_._1)(_._2).map { case (t, ns) => t -> ns.toSet }
    (edges, pkfk)
  }

  /** Query the EKG for each target (lake member): every edge incident to a
    * target column aligns it with the edge's other column, at the edge's
    * similarity; each lake table is ranked by certainty (score desc, then
    * covered target columns desc, then table id).
    */
  def queryAll(idx: AurumIndexes, targetIds: Seq[String]): AurumResult = {
    val answers = targetIds.distinct.toIndexedSeq.map { t =>
      val aligned = idx.incident.getOrElse(t, IndexedSeq.empty)
        .map(e => if (e.aTable == t) (e.aCol, e.bTable, e.bCol, e.sim) else (e.bCol, e.aTable, e.aCol, e.sim))
        .groupMapReduce(h => (h._1, h._2, h._3))(_._4)(math.max)
        .map { case ((tc, s, sc), sim) => Aligned(t, tc, s, sc, sim) }.toIndexedSeq
        .sortBy(a => (a.tCol, a.sTable, a.sCol))
      val ranked = aligned.groupBy(_.sTable)
        .map { case (s, as) => (s, as.map(_.sim).max, as.map(_.tCol).distinct.size) }.toIndexedSeq
        .sortBy { case (s, score, nCov) => (score, nCov, s) }(
          Ordering.Tuple3(Ordering.Double.TotalOrdering.reverse, Ordering.Int.reverse, Ordering.String))
        .zipWithIndex.map { case ((s, score, nCov), i) => Ranked(t, s, score, nCov, i + 1) }
      AurumResult(ranked, aligned)
    }
    AurumResult(answers.flatMap(_.ranked), answers.flatMap(_.aligned))
  }
}
