package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.text.{Embeddings, Tokenizer}

/** Aurum baseline (Fernandez et al., ICDE'18), per §V-A of the D³L paper.
  *
  * Two-step process: (1) profile every column — attribute-name q-gram
  * MinHash, content MinHash, TF-IDF-weighted embedding simhash, numeric
  * [min,max] ranges; (2) build the enterprise knowledge graph (EKG) once by
  * LSH self-join over the profiles (edges = attribute pairs with similarity
  * ≥ edge threshold; the graph build dominates indexing, as the paper
  * observes). Queries are in-memory graph lookups — k-independent, which is
  * why the paper reports a single constant search time for Aurum.
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

  val An = "AN"; val Ac = "AC"; val At = "AT"; val Ar = "AR"

  /** EKG edge: undirected attribute-level edge with its max similarity. */
  final case class Edge(aAttr: String, aTable: String, bAttr: String, bTable: String, sim: Double)

  final case class AurumIndexes(
      catalog: DataFrame,
      signatures: DataFrame,         // profile store: attr, measure, sig
      buckets: DataFrame,            // LSH indexes over the profiles
      edges: DataFrame,              // a_attr,a_table,a_col,b_attr,b_table,b_col,sim
      adjacency: Map[String, Seq[Edge]], // table_id → incident edges (driver copy)
      pkfkTableEdges: Map[String, Set[String]], // join graph for Aurum+J
      edgeThreshold: Double,
  )

  final case class AurumResult(ranking: DataFrame, alignments: DataFrame)

  private val simUdf = udf((m: String, a: Seq[Long], b: Seq[Long]) => {
    val aa = a.toArray; val bb = b.toArray
    m match {
      case "AT" => math.max(0.0, RandomProjection.estimateCosine(aa, bb))
      case _    => MinHash.estimateJaccard(aa, bb)
    }
  })

  /** Profile the lake and build the EKG. `edgeThreshold` keeps edges whose
    * best similarity estimate reaches it (0.5 — the strict τ=0.7 of the LSH
    * layer applies to bucket collision, not edge retention).
    */
  def index(spark: SparkSession, lakeLong: DataFrame,
            edgeThreshold: Double = 0.5): AurumIndexes = {
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
      .withColumn("is_numeric", $"n_values" > 0 && $"n_numeric" >= lit(0.8) * $"n_values")
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

    val buckets = signatures
      .select($"attr", $"table_id", $"measure", $"sig").as[(String, String, String, Array[Long])]
      .flatMap { case (attr, tid, m, sig) =>
        val levels = if (m == At) Banding.simhashLevels else Banding.minhashLevels
        Banding.buckets(sig, levels).map { case (band, bucket) => (m, band, bucket, attr, tid) }
      }
      .toDF("measure", "band", "bucket", "attr", "table_id")
      .cache()

    // --- EKG build: LSH self-join + numeric range overlap -------------------
    val a = buckets.select($"measure", $"band", $"bucket", $"attr" as "a_attr", $"table_id" as "a_table")
    val b = buckets.select($"measure", $"band", $"bucket", $"attr" as "b_attr", $"table_id" as "b_table")
    val collided = a.join(b, Seq("measure", "band", "bucket"))
      .filter($"a_attr" < $"b_attr" && $"a_table" =!= $"b_table")
      .select("measure", "a_attr", "a_table", "b_attr", "b_table")
      .distinct()
    val aSig = signatures.select($"attr" as "a_attr", $"measure", $"sig" as "a_sig")
    val bSig = signatures.select($"attr" as "b_attr", $"measure", $"sig" as "b_sig")
    val lshEdges = collided
      .join(aSig, Seq("a_attr", "measure"))
      .join(bSig, Seq("b_attr", "measure"))
      .withColumn("sim", simUdf($"measure", $"a_sig", $"b_sig"))
      .select("a_attr", "a_table", "b_attr", "b_table", "sim")

    val ranges = lake.filter(nonEmpty)
      .join(catalog.filter($"is_numeric").select("attr"), "attr")
      .select($"attr", $"table_id", $"value").as[(String, String, String)]
      .flatMap { case (a0, t, v) => Tokenizer.parseNumeric(v).map(d => (a0, t, d)) }
      .toDF("attr", "table_id", "num")
      .groupBy("attr", "table_id")
      .agg(min($"num") as "lo", max($"num") as "hi")
    val ra = ranges.select($"attr" as "a_attr", $"table_id" as "a_table", $"lo" as "a_lo", $"hi" as "a_hi")
    val rb = ranges.select($"attr" as "b_attr", $"table_id" as "b_table", $"lo" as "b_lo", $"hi" as "b_hi")
    val rangeEdges = ra.crossJoin(rb)
      .filter($"a_attr" < $"b_attr" && $"a_table" =!= $"b_table")
      .withColumn("ovl", least($"a_hi", $"b_hi") - greatest($"a_lo", $"b_lo"))
      .withColumn("alen", greatest($"a_hi" - $"a_lo", lit(1e-9)))
      .withColumn("blen", greatest($"b_hi" - $"b_lo", lit(1e-9)))
      .withColumn("sim", greatest(lit(0.0), $"ovl") / least($"alen", $"blen"))
      .filter($"sim" > 0)
      .withColumn("sim", least($"sim", lit(1.0)))
      .select("a_attr", "a_table", "b_attr", "b_table", "sim")

    val allEdges = lshEdges.unionByName(rangeEdges)
      .groupBy("a_attr", "a_table", "b_attr", "b_table")
      .agg(max($"sim") as "sim")
      .cache()
    // Column indexes come from the catalog: table ids may contain '#'.
    val cols = catalog.select($"attr", $"col_idx")
    val edges = allEdges
      .filter($"sim" >= edgeThreshold)
      .join(cols.select($"attr" as "a_attr", $"col_idx" as "a_col"), "a_attr")
      .join(cols.select($"attr" as "b_attr", $"col_idx" as "b_col"), "b_attr")
      .select("a_attr", "a_table", "a_col", "b_attr", "b_table", "b_col", "sim")
      .cache()

    val edgeRows = edges.select("a_attr", "a_table", "b_attr", "b_table", "sim")
      .as[(String, String, String, String, Double)].collect()
      .map { case (aa, at, ba, bt, s) => Edge(aa, at, ba, bt, s) }
    val adjacency = (edgeRows.flatMap(e => Seq(e.aTable -> e, e.bTable -> e)))
      .groupBy(_._1).map { case (t, es) => t -> es.map(_._2).toSeq }

    // --- PK/FK candidates for Aurum+J ---------------------------------------
    // Uniqueness + *any weak* inclusion evidence, per the paper's account of
    // Aurum's join discovery ("built on uniqueness of values") — not the
    // strong EKG edges, which would make Aurum+J stricter than it really is.
    val uniq = catalog.filter($"uniqueness" >= 0.85 && !$"is_numeric")
      .select($"attr").withColumn("u", lit(true))
    val pkfk = allEdges
      .join(uniq.select($"attr" as "a_attr", $"u" as "a_u"), Seq("a_attr"), "left")
      .join(uniq.select($"attr" as "b_attr", $"u" as "b_u"), Seq("b_attr"), "left")
      .filter(coalesce($"a_u", lit(false)) || coalesce($"b_u", lit(false)))
      .filter($"sim" >= 0.15)
      .select("a_table", "b_table").distinct()
      .as[(String, String)].collect()
    val pkfkAdj = scala.collection.mutable.Map.empty[String, Set[String]].withDefaultValue(Set.empty)
    pkfk.foreach { case (x, y) => pkfkAdj(x) += y; pkfkAdj(y) += x }

    lake.unpersist(); toks.unpersist(); attrTokens.unpersist(); allEdges.unpersist()
    AurumIndexes(catalog, signatures, buckets, edges, adjacency, pkfkAdj.toMap, edgeThreshold)
  }

  /** Query the EKG for each target (lake member): every edge incident to a
    * target attribute yields a candidate; certainty ranking.
    */
  def queryAll(spark: SparkSession, idx: AurumIndexes, targetIds: Seq[String]): AurumResult = {
    import spark.implicits._
    val targets = targetIds.toDF("t_table")
    val fwd = idx.edges.select(
      $"a_table" as "t_table", $"a_col" as "t_col",
      $"b_table" as "s_table", $"b_col" as "s_col", $"sim")
    val bwd = idx.edges.select(
      $"b_table" as "t_table", $"b_col" as "t_col",
      $"a_table" as "s_table", $"a_col" as "s_col", $"sim")
    val hits = fwd.unionByName(bwd).join(targets, "t_table")

    val alignments = hits.groupBy("t_table", "t_col", "s_table", "s_col")
      .agg(max($"sim") as "sim")
    val ranking = alignments.groupBy("t_table", "s_table")
      .agg(max($"sim") as "score", countDistinct($"t_col") as "n_cov")
      .withColumn("rank", row_number().over(
        Window.partitionBy("t_table").orderBy($"score".desc, $"n_cov".desc, $"s_table".asc)))
    AurumResult(ranking, alignments)
  }

  /** In-memory graph query for one target — the (k-independent) search path
    * whose latency Experiment 5/6 reports as a constant.
    */
  def graphQuery(idx: AurumIndexes, targetId: String): Seq[(String, Double)] = {
    val incident = idx.adjacency.getOrElse(targetId, Seq.empty)
    incident
      .map(e => (if (e.aTable == targetId) e.bTable else e.aTable, e.sim))
      .groupBy(_._1).map { case (t, ss) => (t, ss.map(_._2).max) }
      .toSeq.sortBy { case (t, s) => (-s, t) }
  }
}
