package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import repro.core.D3LConfig
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.text.{Embeddings, Tokenizer}

/** Aurum baseline (Fernandez et al., ICDE'18), per §V-A of the D³L paper.
  *
  * Two-step process: (1) profile every column on Spark — attribute-name
  * q-gram MinHash, content MinHash, TF-IDF-weighted embedding simhash,
  * numeric [min,max] ranges; (2) collect the profiles once and build the
  * enterprise knowledge graph (EKG) on the driver by probing their LSH
  * buckets (edges = attribute pairs with similarity ≥ edge threshold).
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

  final case class AurumIndexes(
      catalog: DataFrame,
      signatures: DataFrame,         // profile store: attr, measure, sig
      buckets: DataFrame,            // LSH indexes over the profiles
      /** The EKG, collected to the driver. */
      edges: IndexedSeq[Edge],
      pkfkTableEdges: Map[String, Set[String]], // join graph for Aurum+J
  ) {
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

  /** Profile the lake and build the EKG. */
  def index(spark: SparkSession, lakeLong: DataFrame): AurumIndexes = {
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
        countDistinct(when(nonEmpty, $"value")) as "n_distinct",
        sum(when(nonEmpty && isNumUdf($"value"), 1L).otherwise(0L)) as "n_numeric")
      .withColumn("is_numeric", $"n_values" > 0 && $"n_numeric" >= lit(D3LConfig().numericFrac) * $"n_values")
      .withColumn("uniqueness",
        when($"n_values" > 0, $"n_distinct".cast("double") / $"n_values").otherwise(0.0))
      .cache()

    // --- profiles -----------------------------------------------------------
    val sigName = catalog.select($"attr", $"col_name").as[(String, String)]
      .map { case (a, n) => (a, An, MinHash.signature(Tokenizer.qgrams(n))) }

    val textual = catalog.filter(!$"is_numeric").select("attr")
    val toks = lake.filter(nonEmpty)
      .select($"attr", $"value")
      .join(textual, "attr")
      .as[(String, String)]
      .flatMap { case (a, v) => Tokenizer.tokens(v).map(t => (a, t)) }
      .toDF("attr", "token")
      .cache()
    val attrTokens = toks.select("attr", "token").distinct().cache()

    val sigContent = attrTokens.as[(String, String)].groupByKey(_._1)
      .mapGroups { (a, it) => (a, Ac, MinHash.signature(it.map(_._2).toSeq)) }

    // TF-IDF simhash: v(a) = Σ_t tf(a,t)·idf(t)·base(t).
    val nAttrs = attrTokens.select("attr").distinct().count().max(1L)
    val df = attrTokens.groupBy("token").agg(count(lit(1)) as "adf")
    val tf = toks.groupBy("attr", "token").agg(count(lit(1)) as "tf")
    val sigTfidf = tf.join(df, "token")
      .select($"attr", $"token", ($"tf" * log(lit(nAttrs.toDouble) / $"adf")) as "wt")
      .as[(String, String, Double)]
      .groupByKey(_._1)
      .mapGroups { (a, it) =>
        val acc = new Array[Float](Embeddings.Dim)
        it.foreach { case (_, t, w) =>
          val bv = Embeddings.baseVector(t)
          var i = 0
          while (i < Embeddings.Dim) { acc(i) += (bv(i) * w).toFloat; i += 1 }
        }
        (a, At, RandomProjection.signature(acc))
      }

    val signatures = sigName.union(sigContent).union(sigTfidf)
      .toDF("attr", "measure", "sig")
      .join(catalog.select("attr", "table_id", "col_idx"), "attr")
      .cache()

    // The bucket frame is what Table II stores; the EKG probes the same
    // buckets on the driver.
    val buckets = signatures
      .select($"attr", $"table_id", $"measure", $"sig").as[(String, String, String, Array[Long])]
      .flatMap { case (attr, tid, m, sig) =>
        Banding.buckets(sig, levels(measures.indexOf(m))).map { case (band, bucket) => (m, band, bucket, attr, tid) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")

    val ranges = lake.filter(nonEmpty)
      .join(catalog.filter($"is_numeric").select("attr"), "attr")
      .select($"attr", $"value").as[(String, String)]
      .flatMap { case (a0, v) => Tokenizer.parseNumeric(v).map(d => (a0, d)) }
      .toDF("attr", "num")
      .groupBy("attr")
      .agg(min($"num") as "lo", max($"num") as "hi")

    // --- collect the profiles -----------------------------------------------
    val profiles = catalog.select("attr", "table_id", "col_idx", "is_numeric", "uniqueness")
      .as[(String, String, Int, Boolean, Double)].collect()
      .map { case (a0, t, c, num, u) => Profile(a0, t, c, num, u) }.sortBy(_.attr)
    val sigRows = signatures.select("attr", "measure", "sig").as[(String, String, Array[Long])].collect()
    val rangeOf = ranges.as[(String, Double, Double)].collect().map { case (a0, lo, hi) => a0 -> (lo, hi) }.toMap
    lake.unpersist(); toks.unpersist(); attrTokens.unpersist()

    val (edges, pkfk) = ekg(profiles, sigRows, rangeOf)
    AurumIndexes(catalog, signatures, buckets, edges, pkfk)
  }

  /** One column's catalog entry, as the EKG build reads it. */
  private final case class Profile(attr: String, tableId: String, colIdx: Int, isNumeric: Boolean, uniqueness: Double)

  private val measures = IndexedSeq(An, Ac, At)
  private val levels = measures.map(m => if (m == At) Banding.simhashLevels else Banding.minhashLevels)

  /** Spark SQL's `greatest` and `least`, which order NaN above every number. */
  private def greatest(x: Double, y: Double): Double = if (x.isNaN || y.isNaN) Double.NaN else math.max(x, y)
  private def least(x: Double, y: Double): Double = if (x.isNaN) y else if (y.isNaN) x else math.min(x, y)

  /** The EKG and the PK/FK table graph of the collected profiles (in attr
    * order), their `sigs` (attr, measure, signature) and the numeric
    * columns' [min, max] `ranges`.
    *
    * Per measure, every pair of columns of different tables that share an
    * LSH bucket is estimated once (Jaccard, or max(0, cosine) for AT);
    * every pair of numeric columns of different tables with overlapping
    * ranges gets their overlap over the shorter range, capped at 1. A pair
    * keeps its max over these; the edges are the pairs reaching
    * [[EdgeThreshold]], in (aAttr, bAttr) order. The range overlap is
    * computed as in Spark SQL, so ranges reaching ±∞ relate as they did
    * when the EKG was a Spark self-join.
    */
  private def ekg(profiles: Array[Profile], sigs: Array[(String, String, Array[Long])],
                  ranges: Map[String, (Double, Double)]): (IndexedSeq[Edge], Map[String, Set[String]]) = {
    val n = profiles.length
    val pos = profiles.map(_.attr).zipWithIndex.toMap
    val best = mutable.LongMap.empty[Double] // a · n + b, for columns a < b → max similarity
    def offer(a: Int, b: Int, sim: Double): Unit = {
      val k = a.toLong * n + b
      best(k) = math.max(best.getOrElse(k, sim), sim)
    }

    val sigsOf = measures.map(_ => Array.fill(n)(Array.emptyLongArray)) // measure ordinal → position → signature
    sigs.foreach { case (a, m, s) => sigsOf(measures.indexOf(m))(pos(a)) = s }
    measures.indices.foreach { m =>
      val sig = sigsOf(m)
      val bucketAttrs = Banding.bucketMap(sig.toIndexedSeq, levels(m))
      val seen = Array.fill(n)(-1) // seen(b) == a: pair (a, b) already estimated for this measure
      for (a <- 0 until n; key <- Banding.buckets(sig(a), levels(m)); b <- bucketAttrs(key))
        if (b > a && seen(b) != a && profiles(a).tableId != profiles(b).tableId) {
          seen(b) = a
          offer(a, b, if (measures(m) == At) math.max(0.0, RandomProjection.estimateCosine(sig(a), sig(b)))
                      else MinHash.estimateJaccard(sig(a), sig(b)))
        }
    }

    val numeric = (0 until n).filter(i => ranges.contains(profiles(i).attr))
    for (x <- numeric.indices; y <- x + 1 until numeric.size) {
      val (a, b) = (numeric(x), numeric(y))
      if (profiles(a).tableId != profiles(b).tableId) {
        val ((aLo, aHi), (bLo, bHi)) = (ranges(profiles(a).attr), ranges(profiles(b).attr))
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
