package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.{PropSupport, SparkSpec}
import repro.lake.{Generators, Lake, LakeColumn, LakeDf, LakeTable}
import repro.lsh.{Banding, LshReference, RandomProjection, SimhashReference}

/** A D³L answer does not depend on its route. The served query pipeline
  * (`D3L.queryAll`, plain Scala on the driver) returns what the Spark-SQL
  * reference pipeline returns over the same `LakeIndexes` frames: same
  * ranking (scores within 1e-9, order swaps only between tied scores), same
  * alignments and same guard set. A batch answers each target as that
  * target alone does, and `queryTable` of a lake member answers as
  * `queryAll` of it. Checked on two fixed lakes and on generated ones.
  */
class D3LEquivalenceSpec extends SparkSpec with PropSupport {

  private val Eps = 1e-9
  private val skewed = Map("N" -> 2.5, "V" -> 0.2, "F" -> 0.8, "E" -> 0.5, "D" -> 1.0)

  private lazy val lakes: Map[String, (Lake, LakeIndexes)] = Seq(
    "Synthetic" -> Generators.synthetic(nBases = 4, derivedPerBase = 5, baseRows = 60, seed = 61),
    "Smaller Real" -> Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 80, seed = 62),
  ).map { case (name, lake) => name -> (lake, D3L.index(spark, LakeDf.toLong(spark, lake.tables))) }.toMap

  private def byTarget(rs: Seq[D3L.Ranked]): Map[String, Seq[D3L.Ranked]] =
    rs.groupBy(_.tTable).map { case (t, ts) => t -> ts.sortBy(_.rank) }

  private def byPair(as: Seq[D3L.Aligned]): Map[(String, Int, String, Int), Double] =
    as.map(a => (a.tTable, a.tCol, a.sTable, a.sCol) -> a.dist).toMap

  private def assertSameRanking(target: String, got: Seq[D3L.Ranked], want: Seq[D3L.Ranked]): Unit = {
    assert(got.map(_.rank) == (1 to got.size), s"$target: ranks not 1..n")
    assert(got.map(_.sTable).toSet == want.map(_.sTable).toSet, s"$target: different candidate tables")
    val wantBy = want.map(r => r.sTable -> r).toMap
    got.foreach { r =>
      val w = wantBy(r.sTable)
      assert(math.abs(r.score - w.score) <= Eps, s"$target/${r.sTable}: score ${r.score} vs ${w.score}")
      r.dist.zip(w.dist).foreach { case (a, b) =>
        assert(math.abs(a - b) <= Eps, s"$target/${r.sTable}: distances ${r.dist} vs ${w.dist}")
      }
      // A different rank is allowed only where the reference puts a tied score.
      if (r.rank != w.rank)
        assert(math.abs(want(r.rank - 1).score - r.score) <= Eps, s"$target/${r.sTable}: rank ${r.rank} vs ${w.rank}, not a tie")
    }
  }

  /** The served values against the reference's frames, read independently
    * of `D3L.QueryResult`'s frames.
    */
  private def assertMatchesReference(served: D3L.QueryResult, ref: SparkSqlReference.Result): Unit = {
    val (got, want) = (byTarget(served.ranked), byTarget(ref.ranked))
    assert(got.keySet == want.keySet)
    got.keys.foreach(t => assertSameRanking(t, got(t), want(t)))

    val (ga, wa) = (byPair(served.aligned), byPair(ref.aligned))
    assert(ga.size == served.aligned.size, "an attribute pair is aligned twice")
    assert(ga.keySet == wa.keySet)
    ga.foreach { case (k, d) => assert(math.abs(d - wa(k)) <= Eps, s"alignment $k: $d vs ${wa(k)}") }

    assert(served.ranked.map(r => (r.tTable, r.sTable)).toSet == ref.pairs)
  }

  for (lakeName <- Seq("Synthetic", "Smaller Real"); (wName, weights) <- Seq("uniform" -> None, "skewed" -> Some(skewed)))
    test(s"served queryAll equals the Spark-SQL reference on $lakeName, $wName Eq. 3 weights") {
      val (lake, idx) = lakes(lakeName)
      val cfg = weights.fold(D3LConfig())(w => D3LConfig(evidenceWeights = w))
      val targets = lake.tables.take(6).map(_.id)
      val served = D3L.queryAll(spark, idx, targets, cfg)
      assert(served.ranked.map(_.tTable).toSet == targets.toSet)
      assertMatchesReference(served, SparkSqlReference.queryAll(spark, idx, targets, cfg))
    }

  for (lakeName <- Seq("Synthetic", "Smaller Real"))
    test(s"batched queryAll answers each target exactly as queryAll of that target alone, on $lakeName") {
      val (lake, idx) = lakes(lakeName)
      val targets = lake.tables.take(6).map(_.id)
      val batched = D3L.queryAll(spark, idx, targets)
      val again = D3L.queryAll(spark, idx, targets)
      assert((again.ranked, again.aligned) == ((batched.ranked, batched.aligned)), "two identical calls differ")
      val alone = targets.map(t => D3L.queryAll(spark, idx, Seq(t)))
      assert(batched.ranked == alone.flatMap(_.ranked), "ranking differs")
      assert(batched.aligned == alone.flatMap(_.aligned), "alignments differ")
    }

  /** Experiment 1's re-ranking as it was written on Spark: a `Window` over
    * the ranking frame.
    */
  private def windowRankBySingleEvidence(ranking: DataFrame, evidence: String): DataFrame =
    ranking
      .withColumn("score1", col(s"d$evidence"))
      .withColumn("rank", row_number().over(
        Window.partitionBy("t_table").orderBy(col("score1").asc, col("s_table").asc)))
      .drop("score1")

  for (lakeName <- Seq("Synthetic", "Smaller Real"))
    test(s"rankBySingleEvidence equals the Window re-ranking on $lakeName") {
      val (lake, idx) = lakes(lakeName)
      val res = D3L.queryAll(spark, idx, lake.tables.map(_.id))
      Evidence.indexed.foreach { ev =>
        val got = D3L.rankBySingleEvidence(res.ranked, ev)
        val want = SparkSqlReference.rankedOf(windowRankBySingleEvidence(res.ranking, ev))
        def order(rs: Seq[D3L.Ranked]) = rs.sortBy(r => (r.tTable, r.rank))
        assert(order(got) == order(want), s"$lakeName, $ev")
        assert(got.map(r => (r.tTable, r.sTable, r.score)).toSet == res.ranked.map(r => (r.tTable, r.sTable, r.score)).toSet)
      }
    }

  // ---- query targets resolved against the lake's buckets ---------------------

  /** Banding levels of an evidence type's index, as DESIGN.md §4.3 sets them. */
  private def levelsOf(evidence: String): Seq[Banding.Level] =
    if (evidence == Evidence.E) Banding.simhashLevels else Banding.minhashLevels

  /** Each signature of `f`'s attributes as (attribute, evidence, signature),
    * empty ones included.
    */
  private def signaturesOf(f: TableFeatures): Seq[(AttrFeatures, String, Array[Long])] = {
    assert(f.attrs.forall(_.sigs.length == Evidence.indexed.size), s"${f.tableId}: signatures per attribute")
    for (a <- f.attrs; (ev, e) <- Evidence.indexed.zipWithIndex) yield (a, ev, a.sigs(e))
  }

  /** The lake's buckets from its features alone: per evidence, (band id,
    * bucket hash) → ids of the lake attributes in it, ascending.
    */
  private def lakeBuckets(idx: LakeIndexes): Map[String, Map[(Int, Long), Seq[Int]]] = {
    val sig = idx.features.flatMap(f => signaturesOf(f).map { case (a, ev, s) => (f.tableId, a.colIdx, ev) -> s }).toMap
    Evidence.indexed.map(ev =>
      ev -> LshReference.bucketMap(idx.serving.attrs.map(a => sig((a.tableId, a.colIdx, ev))), levelsOf(ev))).toMap
  }

  /** Checks `targets`, resolved from `features`, against the lake: every
    * signature as extracted, and per evidence type exactly the buckets the
    * lake holds, in banding order. Returns the band hashes dropped.
    */
  private def checkResolved(idx: LakeIndexes, features: TableFeatures, targets: Seq[ServedAttr]): Int = {
    val held = lakeBuckets(idx)
    val sigs = signaturesOf(features).map { case (a, ev, sig) => (a.colIdx, ev) -> sig }.toMap
    assert(targets.map(t => (t.tableId, t.colIdx)) == features.attrs.map(a => (features.tableId, a.colIdx)))
    targets.map { t =>
      Evidence.indexed.zipWithIndex.map { case (ev, e) =>
        val sig = sigs((t.colIdx, ev))
        val keys = Banding.buckets(sig, levelsOf(ev))
        val want = keys.flatMap(held(ev).get)
        assert(t.buckets(e).map(b => idx.serving.lsh.probe(b).toSeq).toSeq == want, s"${t.tableId}#${t.colIdx} $ev buckets")
        assert(sig.sameElements(t.sigs(e)), s"${t.tableId}#${t.colIdx} $ev signature")
        keys.size - want.size
      }.sum
    }.sum
  }

  private def servedView(a: ServedAttr) =
    (a.tableId, a.colIdx, a.tsetSize, a.subject, a.sigs.map(_.toSeq).toSeq, a.buckets.map(_.toSeq).toSeq,
      a.sample.map(_.toSeq))

  for (lakeName <- Seq("Synthetic", "Smaller Real"))
    test(s"a lake member resolved as a query target is the lake's own attributes, on $lakeName") {
      val (_, idx) = lakes(lakeName)
      idx.features.foreach { f =>
        val resolved = idx.serving.targets(Seq(f))
        assert(resolved.map(_.id) == resolved.indices, s"${f.tableId}: target ids")
        assert(resolved.map(servedView) == idx.serving.tables(Seq(f.tableId)).map(servedView), f.tableId)
        assert(checkResolved(idx, f, resolved) == 0, s"${f.tableId}: a member's bucket was dropped")
      }
    }

  test("buckets the lake does not hold are dropped from a target, which still gets an answer") {
    val (lake, idx) = lakes("Smaller Real")
    val t = lake.tables.head
    val novel = LakeColumn("zqx unseen heading", (1 to t.numRows).map(i => s"qqxv-$i zzkw"), "generated", isSubject = false)
    val target = t.copy(id = s"novel-${t.id}", columns = t.columns :+ novel)
    val features = FeatureExtraction.extractTable(target, D3LConfig(), idx.embeddings.get)
    val resolved = idx.serving.targets(Seq(features))
    assert(checkResolved(idx, features, resolved) > 0, "no band hash of the target was dropped")
    val res = D3L.queryTable(spark, idx, target)
    assert(res.ranked.map(_.sTable).contains(t.id), s"${t.id} missing from the answer")
    assert(res.aligned.exists(a => a.sTable == t.id && a.tCol == a.sCol))
  }

  // ---- one signature form from the kernel to the serving index ---------------

  for (lakeName <- Seq("Synthetic", "Smaller Real"))
    test(s"the serving index holds the features' own signature arrays, on $lakeName") {
      val (_, idx) = lakes(lakeName)
      val served = idx.serving.attrs.iterator
      idx.features.foreach(_.attrs.foreach(a => assert(served.next().sigs eq a.sigs)))
      assert(!served.hasNext)
    }

  for (lakeName <- Seq("Synthetic", "Smaller Real"))
    test(s"the signatures frame bands and estimates as the benchmark's kernels read it, on $lakeName") {
      import spark.implicits._
      val (_, idx) = lakes(lakeName)
      // perfbench's `Kernels` reads the frame so: evidence and signature,
      // banded under the levels of the evidence, 𝔼 pairs estimated.
      val sigs = idx.signatures.select("attr", "evidence", "sig").as[(String, String, Array[Long])].collect().toSeq
      val frame = idx.buckets.select("attr", "evidence", "band", "bucket").as[(String, String, Int, Long)]
        .collect().toSeq.groupMap(r => (r._1, r._2))(r => (r._3, r._4))
      sigs.foreach { case (attr, ev, sig) =>
        assert(Banding.buckets(sig, levelsOf(ev)) == frame((attr, ev)), s"$attr $ev buckets")
      }
      val es = sigs.collect { case (attr, Evidence.E, sig) => attr -> sig }
      assert(es.nonEmpty)
      es.foreach { case (attr, sig) =>
        assert(sig.length == RandomProjection.NumBits / 64, s"$attr: 𝔼 signature of ${sig.length} longs")
        assert(Banding.buckets(sig, Banding.simhashLevels) ==
          SimhashReference.buckets(SimhashReference.unpack(sig), Banding.simhashLevels), s"$attr: 𝔼 buckets")
      }
      es.zip(es.reverse).foreach { case ((x, a), (y, b)) =>
        val want = SimhashReference.estimateCosine(SimhashReference.unpack(a), SimhashReference.unpack(b))
        assert(RandomProjection.estimateCosine(a, b).equals(want), s"$x, $y: cosine estimate")
      }
    }

  // ---- generated lakes -------------------------------------------------------

  private def indexOf(tables: Seq[LakeTable]): LakeIndexes = D3L.index(spark, LakeDf.toLong(spark, tables))

  /** Every route to a lake's answers gives the same values, and the answers
    * are well formed.
    */
  private def checkRoutes(tables: Seq[LakeTable]): Unit = {
    val idx = indexOf(tables)
    val cfg = D3LConfig()
    val ids = tables.map(_.id)
    val batch = D3L.queryAll(spark, idx, ids, cfg)
    val alone = ids.map(id => D3L.queryAll(spark, idx, Seq(id), cfg))
    assert(batch.ranked == alone.flatMap(_.ranked), "batched ranking differs from single-target ones")
    assert(batch.aligned == alone.flatMap(_.aligned), "batched alignments differ from single-target ones")
    tables.zip(alone).foreach { case (t, a) =>
      val q = D3L.queryTable(spark, idx, t, cfg, excludeId = Some(t.id))
      assert(q.ranked == a.ranked, s"${t.id}: queryTable ranking differs from queryAll")
      assert(q.aligned == a.aligned, s"${t.id}: queryTable alignments differ from queryAll")
    }
    byTarget(batch.ranked).foreach { case (t, rs) =>
      assert(rs.map(_.rank) == (1 to rs.size), s"$t: ranks not 1..n")
      assert(rs.forall(r => r.score >= 0.0 && r.score <= 1.0), s"$t: score outside [0, 1]")
      assert(rs.forall(_.sTable != t), s"$t ranks itself")
    }
    assert(batch.aligned.forall(_.dist <= 1.0 - cfg.tau), "alignment beyond 1 − τ")
  }

  test("on generated lakes, batched, single-target and queryTable answers are the same values") {
    val (n, t0) = (12, System.nanoTime())
    forAllGen(generatedLakes, minSuccessful = n, seed = Some(20261019L))(checkRoutes)
    info(f"$n generated lakes in ${(System.nanoTime() - t0) / 1e9}%.1f s")
  }

  test("on generated lakes, served queryAll equals the Spark-SQL reference") {
    forAllGen(generatedLakes, minSuccessful = 3, seed = Some(7L)) { tables =>
      val idx = indexOf(tables)
      val ids = tables.map(_.id)
      assertMatchesReference(D3L.queryAll(spark, idx, ids), SparkSqlReference.queryAll(spark, idx, ids, D3LConfig()))
    }
  }
}
