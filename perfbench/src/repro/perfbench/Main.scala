package repro.perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import scala.collection.mutable
import scala.util.{Failure, Success, Try}
import com.fasterxml.jackson.databind.json.JsonMapper
import com.fasterxml.jackson.module.scala.DefaultScalaModule
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core._
import repro.eval.{Harness, Metrics}
import repro.jobs.JobSupport
import repro.lake.{Generators, Lake, LakeDf}
import Checks.Hit

/** Benchmark entry point: one workload per process, the program reached only
  * through its public functions.
  *
  *   Main --workload lookup|batch --seed N --seconds S --trace 0|1 --out FILE
  *
  * Writes the raw figures of the run (operation times, counts, spans and
  * Spark attribution) as JSON to FILE; `perfbench/run.py` turns them into
  * metrics.
  */
object Main {

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  def main(argv: Array[String]): Unit = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val args = Args(kv("workload"), kv("seed").toLong, kv("seconds").toDouble,
      kv.getOrElse("trace", "0") == "1", kv("out"))
    require(Workloads.all.contains(args.workload), s"unknown workload ${args.workload}")

    val spark = JobSupport.session(s"perfbench-${args.workload}")
    spark.sparkContext.setLogLevel("ERROR")
    val run = new Run(spark, args)
    val settings = Run.settings(spark)
    Try(Workloads.all(args.workload)(run)) match {
      case Failure(e) =>
        run.fail(s"workload aborted: $e")
      case Success(_) =>
    }
    spark.stop()

    val out = Map(
      "workload" -> args.workload, "seed" -> args.seed, "seconds" -> args.seconds,
      "trace" -> args.trace, "settings" -> settings,
      "setup_s" -> run.setupS, "index_s" -> run.indexS, "cells" -> run.cells, "ops" -> run.ops.toSeq.map { case (w, n) => Map("wall_s" -> w, "items" -> n) },
      "attempted" -> run.attempted, "failed" -> run.failed, "problems" -> run.problems.toSeq.take(20),
      "quality" -> run.quality.toMap, "counts" -> run.tracer.countsJson,
      "kernels" -> run.kernels.toSeq,
      "spans" -> run.tracer.spansJson,
      "spark" -> run.tracer.probe.map(_.json).getOrElse(Map.empty),
    )
    val json = JsonMapper.builder().addModule(DefaultScalaModule).build()
    Files.write(Paths.get(args.out), json.writeValueAsBytes(out))
  }
}

/** State of one benchmark run: the closed loop, failures and results. */
final class Run(val spark: SparkSession, val args: Main.Args) {
  val tracer = new Tracer(spark, args.trace)
  val cfg = D3LConfig()
  var setupS: Double = Double.NaN
  var indexS: Double = Double.NaN
  var cells: Double = Double.NaN
  val ops = mutable.ArrayBuffer.empty[(Double, Double)]
  var attempted = 0
  var failed = 0
  val problems = mutable.ArrayBuffer.empty[String]
  val quality = mutable.LinkedHashMap.empty[String, Double]
  val kernels = mutable.ArrayBuffer.empty[Map[String, Any]]

  def span[T](name: String)(body: => T): T = tracer.span(name)(body)

  def fail(problem: String): Unit = { failed += 1; problems += problem }

  /** An operation outside the timed loop whose output is checked. */
  def verify(ps: Seq[String]): Unit = {
    attempted += 1
    if (ps.nonEmpty) { failed += 1; problems ++= ps }
  }

  /** Closed loop with one client: `op(i)` runs only after `op(i-1)` returned,
    * until `args.seconds` have passed (at least once). `op` returns how many
    * targets it answered and a check of its output, run outside the timing.
    * Set-up time is everything from JVM start to the first operation.
    */
  def loop(op: Int => (Double, () => Seq[String])): Unit = {
    setupS = (System.currentTimeMillis() - ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3
    val t0 = System.nanoTime()
    var i = 0
    while (i == 0 || (System.nanoTime() - t0) / 1e9 < args.seconds) {
      attempted += 1
      val s = System.nanoTime()
      val r = Try(tracer.request(s"op-$i")(span("bench.op")(op(i))))
      val wall = (System.nanoTime() - s) / 1e9
      r match {
        case Success((items, check)) =>
          ops += ((wall, items))
          val ps = Try(check()).fold(e => Seq(s"check threw $e"), identity)
          if (ps.nonEmpty) { failed += 1; problems ++= ps }
        case Failure(e) =>
          ops += ((wall, 0.0))
          fail(s"operation $i threw $e")
      }
      i += 1
    }
  }
}

object Run {
  def settings(spark: SparkSession): Map[String, Any] = {
    val conf = spark.conf
    Map(
      "spark.version" -> spark.version,
      "spark.master" -> spark.sparkContext.master,
      "spark.default.parallelism" -> spark.sparkContext.defaultParallelism,
      "spark.sql.shuffle.partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "spark.sql.adaptive.enabled" -> conf.get("spark.sql.adaptive.enabled"),
      "spark.sql.autoBroadcastJoinThreshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "java.version" -> sys.props("java.version"),
      "jvm.max_heap_mb" -> Runtime.getRuntime.maxMemory / (1L << 20),
      "cores" -> Runtime.getRuntime.availableProcessors,
    )
  }
}

/** One answered batch of targets, collected on the driver. */
final case class Answer(
    ranks: Map[String, Seq[Hit]],
    aligns: Seq[(String, Int, String, Int, Double)],
    guard: Map[String, Set[String]],
    /** (target, S_i) → tables reachable through SA-join paths. */
    reach: Map[(String, String), Set[String]],
) {
  def metricRanks: Seq[Metrics.Ranked] =
    ranks.toSeq.flatMap { case (t, hs) => hs.map(h => Metrics.Ranked(t, h.sTable, h.rank)) }
  def metricAligns: Seq[Metrics.Align] =
    aligns.map { case (t, tc, s, sc, _) => Metrics.Align(t, tc, s, sc) }
}

/** The workloads. Lake sizes are set so that set-up plus one timed
  * operation of each workload stays inside a minute on four cores: a query's
  * cost is mostly per-job Spark overhead that barely depends on lake size,
  * so larger lakes buy little realism for much run time.
  */
object Workloads {
  val LookupClusters = 8
  val LookupTablesPerCluster = 5
  val LookupTargets = 16
  val BatchBases = 5
  val BatchDerivedPerBase = 8
  val BatchTargets = 20

  val all: Map[String, Run => Unit] = Map("lookup" -> lookup, "batch" -> batch)

  /** k = the lake's average answer size (at least 1). */
  def answerK(lake: Lake): Int = math.max(1, math.round(lake.avgAnswerSize).toInt)

  def cells(lake: Lake): Long = lake.tables.map(t => t.numRows.toLong * t.arity).sum

  private def prepare(r: Run, gen: => Lake): (Lake, DataFrame) = {
    val lake = r.span("lake.generate")(gen)
    val lakeLong = r.span("lake.to_long") {
      val df = LakeDf.toLong(r.spark, lake.tables).cache()
      df.count()
      df
    }
    r.cells = cells(lake).toDouble
    r.tracer.count("lake.cells", r.cells)
    (lake, lakeLong)
  }

  /** Runs `body`, which makes the lake queryable, and records its wall time
    * as index_s.
    */
  def makeQueryable[T](r: Run)(body: => T): T = {
    val t0 = System.nanoTime()
    val out = body
    r.indexS = (System.nanoTime() - t0) / 1e9
    out
  }

  /** Index and SA-join graph checks, run after the timed loop. */
  def checkIndex(r: Run, lake: Lake, idx: LakeIndexes, graph: Option[JoinPaths.SaJoinGraph]): Unit =
    r.verify(Try {
      val (catalogRows, nameSigs, subj) = Checks.indexFigures(idx)
      Checks.index(lake, catalogRows, nameSigs, subj, graph)
    }.fold(e => Seq(s"index check threw $e"), identity))

  /** `D3L.index`; traced, the same extraction with each frame forced in its
    * own span, in dependency order.
    */
  def buildIndex(r: Run, lakeLong: DataFrame): LakeIndexes = r.span("core.index") {
    if (!r.tracer.enabled) D3L.index(r.spark, lakeLong, r.cfg)
    else {
      val idx = FeatureExtraction.extract(r.spark, lakeLong, r.cfg)
      Seq("embeddings" -> idx.tokenEmbeddings, "catalog" -> idx.catalog,
        "signatures" -> idx.signatures, "buckets" -> idx.buckets,
        "numeric" -> idx.numericProfiles, "subjects" -> idx.subjects)
        .foreach { case (name, df) => r.span(s"core.index.$name") { df.cache(); df.count() } }
      idx
    }
  }

  private def hits(df: DataFrame): Seq[(String, Hit)] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select("t_table", "s_table", "score", "rank").as[(String, String, Double, Int)].collect()
      .map { case (t, s, sc, rk) => t -> Hit(s, sc, rk) }.toSeq
  }

  /** `D3L.queryAll` over `targets`, ranking, alignments and guard set
    * collected, then D³L+J expansion for every (target, S_i ∈ top-k).
    */
  def answerBatch(r: Run, idx: LakeIndexes, graph: JoinPaths.SaJoinGraph,
                  targets: Seq[String], k: Int): Answer = {
    import r.spark.implicits._
    val (rankRows, alignRows, pairRows) = r.span("core.query_all") {
      val res = D3L.queryAll(r.spark, idx, targets, r.cfg)
      (hits(res.ranking),
        res.alignments.select("t_table", "t_col", "s_table", "s_col", "best_dist")
          .as[(String, Int, String, Int, Double)].collect().toSeq,
        res.tablePairs.as[(String, String)].collect().toSeq)
    }
    val (ranks, guard) = r.span("eval.collect") {
      (rankRows.groupBy(_._1).map { case (t, hs) => t -> hs.map(_._2).sortBy(_.rank) },
        pairRows.groupBy(_._1).map { case (t, ps) => t -> ps.map(_._2).toSet })
    }
    val reach = r.span("core.join_paths") {
      targets.flatMap { t =>
        val topK = ranks.getOrElse(t, Nil).filter(_.rank <= k).map(_.sTable).toSet
        topK.toSeq.map { si =>
          (t, si) -> JoinPaths.reachable(graph, topK, guard.getOrElse(t, Set.empty), si, r.cfg.maxPathLen)
        }
      }.toMap
    }
    Answer(ranks, alignRows, guard, reach)
  }

  def checkAnswer(lake: Lake, targets: Seq[String], a: Answer, k: Int, cfg: D3LConfig): Seq[String] = {
    val ts = targets.toSet
    val stray = a.ranks.keySet.diff(ts).toSeq.map(t => s"ranking for $t, which is not a target")
    stray ++ a.ranks.toSeq.flatMap { case (t, hs) => Checks.ranking(t, hs, None, None) } ++
      Checks.alignments(lake, ts, a.aligns, cfg) ++
      a.reach.toSeq.flatMap { case ((t, si), got) =>
        val topK = a.ranks.getOrElse(t, Nil).filter(_.rank <= k).map(_.sTable).toSet
        Checks.reachable(t, si, got, topK, a.guard.getOrElse(t, Set.empty))
      }
  }

  /** Precision/recall at k and (with a graph) D³L+J coverage, plus the
    * per-layer counts of the LSH candidate set against the ground truth.
    */
  def score(r: Run, lake: Lake, targets: Seq[String], a: Answer, k: Int): Unit = r.span("eval.metrics") {
    val ranks = a.metricRanks
    val (p, rc) = Metrics.precisionRecallAtK(ranks, lake.truth, k)
    r.quality("precision_at_k") = p
    r.quality("recall_at_k") = rc
    r.quality("k") = k
    r.quality("targets") = targets.size
    if (a.reach.nonEmpty) {
      r.quality("coverage_j_at_k") = Metrics.meanCoverage(ranks, a.metricAligns, lake, k,
        (t, si) => a.reach.getOrElse((t, si), Set.empty))
      r.tracer.count("core.join_paths.reachable_per_start",
        a.reach.valuesIterator.map(_.size).sum.toDouble / a.reach.size)
    }
    if (a.guard.nonEmpty) {
      val cands = targets.map(t => a.guard.getOrElse(t, Set.empty))
      val nCand = cands.map(_.size).sum
      val nTrue = targets.zip(cands).map { case (t, cs) => cs.count(lake.truth.related(t, _)) }.sum
      r.tracer.count("core.query.candidate_tables_per_target", nCand.toDouble / targets.size)
      r.tracer.count("core.query.candidate_precision", if (nCand == 0) 0.0 else nTrue.toDouble / nCand)
      r.tracer.count("core.query.alignments_per_target", a.aligns.size.toDouble / targets.size)
    }
  }

  /** Counts on the index frames and the space they take (traced only). */
  def indexCounts(r: Run, lakeLong: DataFrame, idx: LakeIndexes): Unit =
    if (r.tracer.enabled) r.tracer.request("counts")(r.span("eval.counts") {
      import r.spark.implicits._
      r.tracer.count("core.index.attrs", idx.catalog.count().toDouble)
      r.tracer.count("core.index.signatures", idx.signatures.count().toDouble)
      idx.buckets.groupBy("evidence").count().as[(String, Long)].collect()
        .foreach { case (ev, n) => r.tracer.count(s"core.index.bucket_rows.$ev", n.toDouble) }
      r.tracer.count("core.index.numeric_profiles", idx.numericProfiles.count().toDouble)
      val dir = Files.createTempDirectory(Paths.get(sys.props("java.io.tmpdir")), "space").toString
      lakeLong.write.option("header", "true").csv(s"$dir/lake")
      Seq("catalog" -> idx.catalog, "signatures" -> idx.signatures, "buckets" -> idx.buckets,
        "numeric" -> idx.numericProfiles, "subjects" -> idx.subjects, "embeddings" -> idx.tokenEmbeddings)
        .foreach { case (n, df) => Harness.writeParquet(df, s"$dir/index/$n") }
      r.tracer.count("core.index.space_ratio",
        Harness.dirBytes(s"$dir/index").toDouble / Harness.dirBytes(s"$dir/lake"))
    })

  // ---- lookup: single-target queries, closed loop, one client --------------

  /** `D3L.queryTable` with its top-k collected; traced, target extraction is
    * forced in its own span before `D3L.queryWith`.
    */
  def queryTable(r: Run, idx: LakeIndexes, lake: Lake, id: String, k: Int): Seq[Hit] = {
    val target = lake.table(id)
    def topK(ranking: DataFrame) = hits(ranking.filter(col("rank") <= k)).map(_._2)
    r.span("core.query_table") {
      if (!r.tracer.enabled) topK(D3L.queryTable(r.spark, idx, target, r.cfg, excludeId = Some(id)).ranking)
      else {
        val tIdx = r.span("core.target_extract") {
          FeatureExtraction.extract(r.spark, LakeDf.toLong(r.spark, Seq(target)), r.cfg,
            reuseEmbeddings = Some(idx.tokenEmbeddings)).cacheAll()
        }
        val top = r.span("core.query_with") {
          topK(D3L.queryWith(r.spark, tIdx, idx, r.cfg).ranking.filter(col("s_table") =!= id))
        }
        tIdx.unpersistAll()
        top
      }
    }
  }

  def lookup(r: Run): Unit = {
    val (lake, lakeLong) = prepare(r, Generators.smallerReal(
      nClusters = LookupClusters, tablesPerCluster = LookupTablesPerCluster, seed = r.args.seed))
    val idx = makeQueryable(r)(buildIndex(r, lakeLong))
    val targets = Harness.sampleTargets(lake, LookupTargets, r.args.seed)
    val k = answerK(lake)
    // Cross-path oracle: the batched path ranks every lookup target once.
    val oracle = r.tracer.request("oracle") {
      val ranks = r.span("core.query_all")(hits(D3L.queryAll(r.spark, idx, targets, r.cfg).ranking))
      Answer(ranks.groupBy(_._1).map { case (t, hs) => t -> hs.map(_._2).sortBy(_.rank) },
        Nil, Map.empty, Map.empty)
    }
    r.verify(checkAnswer(lake, targets, oracle, k, r.cfg))
    r.loop { i =>
      val t = targets(i % targets.size)
      val top = queryTable(r, idx, lake, t, k)
      (1.0, () => Checks.ranking(t, top, Some(t), Some(k)) ++
        Checks.sameTopK(t, top, oracle.ranks.getOrElse(t, Nil), k))
    }
    // Every queryTable answer was checked equal to the oracle's, so answer
    // quality is scored over all lookup targets.
    score(r, lake, targets, oracle, k)
    checkIndex(r, lake, idx, None)
    indexCounts(r, lakeLong, idx)
    Kernels.run(r, lake, idx, targets)
  }

  // ---- batch: queryAll + join-path expansion over many targets --------------

  def batch(r: Run): Unit = {
    val (lake, lakeLong) = prepare(r, Generators.synthetic(
      nBases = BatchBases, derivedPerBase = BatchDerivedPerBase, seed = r.args.seed))
    val (idx, graph) = makeQueryable(r) {
      val idx = buildIndex(r, lakeLong)
      (idx, r.span("core.sa_graph")(JoinPaths.buildGraph(r.spark, idx, r.cfg)))
    }
    r.tracer.count("core.sa_graph.edges", graph.edgeCount.toDouble)
    val targets = Harness.sampleTargets(lake, BatchTargets, r.args.seed)
    val k = answerK(lake)
    var last: Option[Answer] = None
    r.loop { _ =>
      val a = answerBatch(r, idx, graph, targets, k)
      (targets.size.toDouble, () => { last = Some(a); checkAnswer(lake, targets, a, k, r.cfg) })
    }
    last.foreach(a => score(r, lake, targets, a, k))
    checkIndex(r, lake, idx, Some(graph))
    indexCounts(r, lakeLong, idx)
    Kernels.run(r, lake, idx, targets)
  }
}
