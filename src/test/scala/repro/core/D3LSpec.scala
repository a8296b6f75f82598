package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.lake.{Generators, LakeDf, MalformedLakes}

/** End-to-end discovery tests on a small dirty lake with planted ground
  * truth: related tables (same cluster) must dominate the top of the D³L
  * ranking, evidence columns must behave per §III, and Algorithm 2's guards
  * must hold.
  */
class D3LSpec extends MalformedLakes {

  private lazy val lake = Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 80, seed = 31)
  private lazy val long = LakeDf.toLong(spark, lake.tables).cache()
  private lazy val idx = D3L.index(spark, long)
  private lazy val targets = lake.tables.take(3).map(_.id) // one per cluster
  private lazy val result = D3L.queryAll(spark, idx, targets)
  private lazy val ranking = result.ranking

  test("ranking contains every target") {
    val ts = ranking.select("t_table").distinct().collect().map(_.getString(0)).toSet
    assert(ts == targets.toSet)
  }

  test("ranking never contains self-matches") {
    assert(ranking.filter(col("t_table") === col("s_table")).count() == 0)
  }

  test("ranks are dense and start at 1") {
    targets.foreach { t =>
      val rs = ranking.filter(col("t_table") === t).select("rank")
        .collect().map(_.getInt(0)).sorted.toSeq
      assert(rs == (1 to rs.size))
    }
  }

  test("scores are within [0,1] and ordered by rank") {
    targets.foreach { t =>
      val rows = ranking.filter(col("t_table") === t)
        .orderBy("rank").select("score").collect().map(_.getDouble(0)).toSeq
      assert(rows.forall(s => s >= 0.0 && s <= 1.0 + 1e-9))
      assert(rows == rows.sorted)
    }
  }

  test("distance vector columns are all present and bounded") {
    Evidence.all.foreach { e =>
      val bad = ranking.filter(col(s"d$e") < 0 || col(s"d$e") > 1.0001).count()
      assert(bad == 0, s"evidence $e out of bounds")
    }
  }

  test("same-cluster tables dominate the top of the ranking") {
    // Precision@4 (cluster size 5 → 4 related per target) averaged ≥ 0.5:
    // the planted related tables must clearly beat cross-cluster noise.
    val rows = ranking.filter(col("rank") <= 4)
      .select("t_table", "s_table").collect()
    val hits = rows.count(r => lake.truth.related(r.getString(0), r.getString(1)))
    assert(hits >= rows.length / 2, s"only $hits/${rows.length} top-4 are truly related")
  }

  test("recall: most related tables are retrieved somewhere in the ranking") {
    val retrieved = ranking.select("t_table", "s_table").collect()
      .groupBy(_.getString(0)).view.mapValues(_.map(_.getString(1)).toSet).toMap
    targets.foreach { t =>
      val rel = lake.truth.relatedTables(t)
      val found = rel intersect retrieved.getOrElse(t, Set.empty)
      assert(found.size >= rel.size / 2, s"$t: found ${found.size}/${rel.size}")
    }
  }

  test("alignments reference valid column indexes") {
    val rows = result.alignments.collect()
    rows.foreach { r =>
      val t = lake.table(r.getAs[String]("t_table"))
      val s = lake.table(r.getAs[String]("s_table"))
      assert(r.getAs[Int]("t_col") < t.arity)
      assert(r.getAs[Int]("s_col") < s.arity)
    }
  }

  test("tablePairs is a superset of the ranked tables") {
    val ranked = ranking.select("t_table", "s_table").collect()
      .map(r => (r.getString(0), r.getString(1))).toSet
    val guard = result.tablePairs.collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(ranked.subsetOf(guard))
  }

  test("D distances only appear between numeric attribute pairs with guard evidence") {
    // Every table pair with dD < 1 must have numeric attrs on both sides.
    val withD = ranking.filter(col("dD") < 1.0).select("t_table", "s_table").collect()
    withD.foreach { r =>
      def hasNumeric(id: String) = lake.table(id).columns.exists { c =>
        c.values.count(v => repro.text.Tokenizer.isNumericValue(v)) >
          0.8 * math.max(1, c.values.count(v => v != null && v.trim.nonEmpty))
      }
      assert(hasNumeric(r.getString(0)), s"${r.getString(0)} has no numeric attr")
      assert(hasNumeric(r.getString(1)), s"${r.getString(1)} has no numeric attr")
    }
  }

  test("single-evidence re-ranking produces valid dense ranks") {
    val byName = D3L.rankBySingleEvidence(result.ranked, Evidence.N)
    targets.foreach { t =>
      val rs = byName.filter(_.tTable == t).map(_.rank).sorted
      assert(rs == (1 to rs.size))
    }
  }

  test("single-evidence rankings differ from the aggregate") {
    val byFormat = D3L.rankBySingleEvidence(result.ranked, Evidence.F).map(r => (r.tTable, r.sTable) -> r.rank).toMap
    val agg = result.ranked.map(r => (r.tTable, r.sTable) -> r.rank).toMap
    assert(byFormat != agg)
  }

  test("queryTable on a lake member ≈ batched query for that member") {
    val t = lake.tables.head
    val single = D3L.queryTable(spark, idx, t, excludeId = Some(t.id))
    val got = single.ranking.filter(col("rank") <= 3).select("s_table")
      .collect().map(_.getString(0)).toSet
    assert(got.nonEmpty)
    // The top tables should be largely truly related, as in the batched run.
    val rel = got.count(lake.truth.related(t.id, _))
    assert(rel >= 1, s"top-3 of single-target query had no related table: $got")
  }

  test("evidence weights change the ranking") {
    val cfg = D3LConfig(evidenceWeights = Map("N" -> 5.0, "V" -> 0.01, "F" -> 0.01, "E" -> 0.01, "D" -> 0.01))
    val reweighted = D3L.queryAll(spark, idx, targets, cfg).ranking
      .select("t_table", "s_table", "rank").collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getInt(2)).toMap
    val base = ranking.select("t_table", "s_table", "rank").collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getInt(2)).toMap
    assert(reweighted != base)
  }

  test("D3LConfig rejects evidence weights Eq. 3 cannot use") {
    val uniform = Evidence.all.map(_ -> 1.0).toMap
    Seq(
      (uniform - Evidence.D, "exactly the keys"),
      (uniform + ("X" -> 1.0), "exactly the keys"),
      (uniform.updated(Evidence.V, -1.0), "finite and non-negative"),
      (uniform.updated(Evidence.V, Double.NaN), "finite and non-negative"),
      (uniform.updated(Evidence.V, Double.PositiveInfinity), "finite and non-negative"),
      (uniform.map { case (e, _) => e -> 0.0 }, "positive sum"),
    ).foreach { case (w, problem) =>
      val e = intercept[IllegalArgumentException](D3LConfig(evidenceWeights = w))
      assert(e.getMessage.contains(problem), e.getMessage)
    }
  }

  private def topK(res: D3L.QueryResult, target: String, k: Int): Seq[(String, Double, Int)] =
    res.ranking.filter(col("t_table") === target && col("rank") <= k)
      .select("s_table", "score", "rank").collect()
      .map(r => (r.getString(0), r.getDouble(1), r.getInt(2))).toSeq.sortBy(_._3)

  test("queryTable drops the excluded table before ranking: a renamed copy gets queryAll's top-k") {
    val t = lake.tables(1)
    val copy = t.copy(id = s"copy-of-${t.id}")
    val single = D3L.queryTable(spark, idx, copy, excludeId = Some(t.id))
    val ranks = single.ranking.select("rank", "s_table").collect().map(r => (r.getInt(0), r.getString(1)))
    assert(ranks.map(_._1).sorted.toSeq == (1 to ranks.length), "ranks are not 1..n")
    assert(!ranks.exists(_._2 == t.id), "excluded table is ranked")
    val k = 4
    val got = topK(single, copy.id, k)
    val want = topK(result, t.id, k)
    assert(got.size == want.size)
    got.zip(want).foreach { case ((gs, gScore, _), (ws, wScore, _)) =>
      assert(math.abs(gScore - wScore) <= 1e-9, s"score of $gs $gScore vs $ws $wScore")
    }
    // Candidates may differ only where they tie with the k-th score.
    val kth = want.last._2
    val scoreOf = (got ++ want).map(h => h._1 -> h._2).toMap
    val swapped = (got.map(_._1).toSet diff want.map(_._1).toSet) ++ (want.map(_._1).toSet diff got.map(_._1).toSet)
    assert(swapped.forall(s => math.abs(scoreOf(s) - kth) <= 1e-9), s"top-$k differs on $swapped")
  }

  test("queryTable never ranks the lake table that shares the target's id, even without excludeId") {
    val t = lake.tables(3)
    val modified = t.copy(columns = t.columns.map(c => c.copy(values = c.values.drop(1))))
    val res = D3L.queryTable(spark, idx, modified)
    val ranked = res.ranking.select("s_table").collect().map(_.getString(0)).toSeq
    assert(ranked.nonEmpty)
    assert(!ranked.contains(t.id), s"${t.id} ranks itself")
    assert(res.alignments.filter(col("s_table") === t.id).count() == 0)
  }

  test("queryTable rejects a target whose table id is null or empty") {
    val t = lake.tables(3)
    Seq[(String, String)]((null, "null table id"), ("", "empty table id")).foreach { case (id, what) =>
      val e = intercept[IllegalArgumentException](D3L.queryTable(spark, idx, t.copy(id = id), excludeId = Some(t.id)))
      assert(e.getMessage.contains(what), e.getMessage)
    }
  }

  test("QueryResult builds each frame once, on its first access") {
    // Without a session no frame can be built: reading the values builds none.
    val values = new D3L.QueryResult(null, result.ranked, result.aligned)
    assert(values.ranked.nonEmpty && values.aligned.nonEmpty)
    val res = D3L.queryAll(spark, idx, targets)
    val ranking = res.ranking
    assert(res.ranking eq ranking)
    val (alignments, tablePairs) = (res.alignments, res.tablePairs)
    assert((res.alignments eq alignments) && (res.tablePairs eq tablePairs))
  }

  test("the answer frames are views of the values: schemas, column order and rows") {
    def columns(df: org.apache.spark.sql.DataFrame) = df.schema.map(f => (f.name, f.dataType.simpleString, f.nullable))
    val t = lake.tables(2)
    Seq(result, D3L.queryTable(spark, idx, t, excludeId = Some(t.id))).foreach { res =>
      assert(columns(res.ranking) == Seq(("t_table", "string", false), ("s_table", "string", false)) ++
        Evidence.all.map(e => (s"d$e", "double", false)) ++ Seq(("score", "double", false), ("rank", "int", false)))
      assert(columns(res.alignments) == Seq(("t_table", "string", false), ("t_col", "int", false),
        ("s_table", "string", false), ("s_col", "int", false), ("best_dist", "double", false)))
      assert(columns(res.tablePairs) == Seq(("t_table", "string", false), ("s_table", "string", false)))
      val rows = SparkSqlReference.Result(res.ranking, res.alignments, res.tablePairs)
      assert(rows.ranked == res.ranked)
      assert(rows.aligned == res.aligned)
      assert(res.tablePairs.collect().toSeq.map(r => (r.getString(0), r.getString(1))) == res.ranked.map(r => (r.tTable, r.sTable)))
    }
    assert(result.ranked.nonEmpty && result.aligned.nonEmpty)
  }

  test("reading ranking alone, then alignments and tablePairs, gives the rows of an eager read") {
    val (t, other) = (lake.tables(2), lake.tables(7))
    Seq[() => D3L.QueryResult](
      () => D3L.queryAll(spark, idx, targets),
      () => D3L.queryTable(spark, idx, t, excludeId = Some(t.id)),
    ).foreach { query =>
      val eager = query()
      val want = (eager.tablePairs.collect().toSeq, eager.alignments.collect().toSeq, eager.ranking.collect().toSeq)
      val res = query()
      val ranking = res.ranking
      val rankRows = ranking.collect().toSeq
      // Another query in between must not change what the deferred frames read.
      val between = D3L.queryTable(spark, idx, other, excludeId = Some(other.id))
      (between.ranking.collect(), between.alignments.collect(), between.tablePairs.collect())
      assert((res.tablePairs.collect().toSeq, res.alignments.collect().toSeq, rankRows) == want)
      assert(res.ranking eq ranking)
      assert((res.alignments eq res.alignments) && (res.tablePairs eq res.tablePairs))
    }
  }

  test("queryAll rejects target ids the index does not hold") {
    val e = intercept[IllegalArgumentException](D3L.queryAll(spark, idx, Seq(targets.head, "no-such-table")))
    assert(e.getMessage.contains("no-such-table"))
  }

  rejectsMalformedLakes("D3L.index", D3L.index(spark, _), lake.tables)

  test("row_idx only orders a column's values: negative row indexes index like their shifted non-negative ones") {
    val shifted = D3L.index(spark, long.withColumn("row_idx", col("row_idx") - 1000L))
    Seq[LakeIndexes => DataFrame](_.catalog, _.signatures, _.buckets, _.numericProfiles, _.subjects)
      .foreach(frame => assert(frame(shifted).collect().toSeq.map(_.toString) == frame(idx).collect().toSeq.map(_.toString)))
    val (a, b) = (D3L.queryAll(spark, shifted, targets), D3L.queryAll(spark, idx, targets))
    assert((a.ranked, a.aligned) == ((b.ranked, b.aligned)))
  }

  test("D3L.index leaves no persistent RDD") {
    long.count()
    val added = persistedBy(D3L.index(spark, long))
    assert(added.isEmpty, s"${added.size} datasets persisted by the build")
  }

  test("D3L.index runs two Spark jobs: embedding training and Algorithm 1's collect") {
    long.count()
    val jobs = jobsStartedBy(D3L.index(spark, long))
    assert(jobs == 2, s"$jobs Spark jobs started by D3L.index")
  }

  test("the index does not depend on the long lake's row order or partitioning") {
    def answer(i: LakeIndexes) = {
      val res = D3L.queryAll(spark, i, targets)
      (i.serving.tableIds, i.serving.attrs.map(a => (a.id, a.tableId, a.colIdx)),
        res.ranking.collect().toSeq, res.alignments.collect().toSeq)
    }
    val want = answer(idx)
    Seq("shuffled rows" -> long.orderBy(rand(7)), "7 partitions" -> long.repartition(7)).foreach {
      case (how, variant) => assert(answer(D3L.index(spark, variant)) == want, how)
    }
  }

  test("a target reusing the lake's embeddings has them and releases all it cached") {
    val targetLong = LakeDf.toLong(spark, lake.tables.take(1))
    val lakeModel = idx.tokenEmbeddings // builds the lake index before the snapshot
    val left = persistedBy {
      val target = FeatureExtraction.extract(spark, targetLong, reuseEmbeddings = Some(lakeModel)).cacheAll()
      target.unpersistAll()
      assert(target.embeddings.keySet == idx.embeddings.keySet)
      idx.embeddings.foreach { case (tok, v) => assert(target.embeddings(tok).toSeq == v.toSeq, tok) }
    }
    assert(left.isEmpty, "the target left cached datasets behind")
  }

  test("queryTable and its top-k collect start no Spark job and persist nothing") {
    idx // index built before measuring
    val left = persistedBy {
      val jobs = jobsStartedBy {
        (0 until 20).foreach { i =>
          val t = lake.tables(i % lake.tables.size)
          D3L.queryTable(spark, idx, t, excludeId = Some(t.id))
            .ranking.filter(col("rank") <= 4).select("s_table", "score", "rank").collect()
        }
      }
      assert(jobs == 0, s"$jobs Spark jobs started by queryTable")
    }
    assert(left.isEmpty, "queryTable left persisted RDDs behind")
  }
}
