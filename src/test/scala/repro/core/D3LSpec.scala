package repro.core

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.lake.{Generators, LakeDf}

/** End-to-end discovery tests on a small dirty lake with planted ground
  * truth: related tables (same cluster) must dominate the top of the D³L
  * ranking, evidence columns must behave per §III, and Algorithm 2's guards
  * must hold.
  */
class D3LSpec extends SparkSpec {

  private lazy val lake = Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 80, seed = 31)
  private lazy val long = LakeDf.toLong(spark, lake.tables).cache()
  private lazy val idx = D3L.index(spark, long)
  private lazy val targets = lake.tables.take(3).map(_.id) // one per cluster
  private lazy val result = D3L.queryAll(spark, idx, targets)
  private lazy val ranking = result.ranking.cache()

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
    val byName = D3L.rankBySingleEvidence(ranking, Evidence.N)
    targets.foreach { t =>
      val rs = byName.filter(col("t_table") === t).select("rank")
        .collect().map(_.getInt(0)).sorted.toSeq
      assert(rs == (1 to rs.size))
    }
  }

  test("single-evidence rankings differ from the aggregate") {
    val byFormat = D3L.rankBySingleEvidence(ranking, Evidence.F)
      .select("t_table", "s_table", "rank").collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getInt(2)).toMap
    val agg = ranking.select("t_table", "s_table", "rank").collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getInt(2)).toMap
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

  test("queryAll rejects target ids the index does not hold") {
    val e = intercept[IllegalArgumentException](D3L.queryAll(spark, idx, Seq(targets.head, "no-such-table")))
    assert(e.getMessage.contains("no-such-table"))
  }

  /** Spark jobs `body` starts on this thread. Listener events arrive in
    * order: once a marker job is seen, every job `body` started has been
    * seen too.
    */
  private def jobsStartedBy(body: => Unit): Int = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger()
    val marker = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))) match {
          case Some("under-test") => jobs.incrementAndGet()
          case Some("under-test-marker") => marker.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("under-test", "jobs under test")
      body
      sc.setJobGroup("under-test-marker", "listener marker")
      sc.parallelize(Seq(1), 1).count()
      assert(marker.await(60, TimeUnit.SECONDS), "marker job never reached the listener")
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
    jobs.get
  }

  test("D3L.index leaves no persistent RDD") {
    val sc = spark.sparkContext
    long.count()
    val before = sc.getPersistentRDDs.keySet
    D3L.index(spark, long)
    val added = sc.getPersistentRDDs.keySet.diff(before)
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
    val sc = spark.sparkContext
    val targetLong = LakeDf.toLong(spark, lake.tables.take(1))
    val lakeModel = idx.tokenEmbeddings // builds the lake index before the snapshot
    val before = sc.getPersistentRDDs.keySet
    val target = FeatureExtraction.extract(spark, targetLong, reuseEmbeddings = Some(lakeModel)).cacheAll()
    target.unpersistAll()
    assert(sc.getPersistentRDDs.keySet == before, "the target left cached datasets behind")
    assert(target.embeddings.keySet == idx.embeddings.keySet)
    idx.embeddings.foreach { case (tok, v) => assert(target.embeddings(tok).toSeq == v.toSeq, tok) }
  }

  test("queryTable and its top-k collect start no Spark job and persist nothing") {
    val sc = spark.sparkContext
    idx // index built before measuring
    val persisted = sc.getPersistentRDDs.keySet
    val jobs = jobsStartedBy {
      (0 until 20).foreach { i =>
        val t = lake.tables(i % lake.tables.size)
        D3L.queryTable(spark, idx, t, excludeId = Some(t.id))
          .ranking.filter(col("rank") <= 4).select("s_table", "score", "rank").collect()
      }
    }
    assert(jobs == 0, s"$jobs Spark jobs started by queryTable")
    assert(sc.getPersistentRDDs.keySet == persisted, "queryTable left persisted RDDs behind")
  }
}
