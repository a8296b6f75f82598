package repro.eval

import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, xxhash64}
import repro.baselines.{Aurum, SyntheticKB, Tus}
import repro.core._
import repro.lake.{Lake, LakeDf}

/** Shared experiment machinery used by both `jobs/` entrypoints and the
  * bench suites: builds all three systems over a lake once, runs batched
  * queries, collects rankings/alignments, and provides the join-path
  * closures that Experiments 8–11 need.
  */
object Harness {

  /** Everything needed to run every experiment on one lake. */
  final case class Fixture(
      lake: Lake,
      lakeLong: DataFrame,
      cfg: D3LConfig,
      d3l: LakeIndexes,
      tus: Tus.TusIndexes,
      aurum: Aurum.AurumIndexes,
      saGraph: JoinPaths.SaJoinGraph,
      targets: Seq[String],
      kbPath: String,
  )

  /** Collected output of one system's batched query. `guard(t)` is the set
    * of tables with ≥1 index hit for target t (Algorithm 3's relatedness
    * condition); empty map for systems without that notion.
    */
  final case class SystemRun(
      ranks: Seq[Metrics.Ranked],
      aligns: Seq[Metrics.Align],
      guard: Map[String, Set[String]],
  )

  def time[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** One KB database per JVM (created lazily in the work dir). */
  lazy val kbPath: String = {
    val dir = Files.createDirectories(Paths.get(sys.props("java.io.tmpdir"), "repro-kb"))
    SyntheticKB.createDb(dir.resolve("kb.duckdb").toString)
  }

  /** Deterministic target sample. */
  def sampleTargets(lake: Lake, n: Int, seed: Long): Seq[String] = {
    val rnd = new scala.util.Random(seed)
    rnd.shuffle(lake.tables.map(_.id)).take(n)
  }

  /** Build all three systems (and the SA-join graph) over a lake. */
  def build(spark: SparkSession, lake: Lake, nTargets: Int = 20, seed: Long = 101,
            cfg: D3LConfig = D3LConfig()): Fixture = {
    val lakeLong = LakeDf.toLong(spark, lake.tables).cache()
    lakeLong.count()
    val d3l = D3L.index(spark, lakeLong, cfg)
    val tus = Tus.index(spark, lakeLong, kbPath, reuseEmbeddings = Some(d3l.embeddings))
    val aurum = Aurum.index(spark, lakeLong)
    val saGraph = JoinPaths.buildGraph(spark, d3l, cfg)
    Fixture(lake, lakeLong, cfg, d3l, tus, aurum, saGraph,
      sampleTargets(lake, nTargets, seed), kbPath)
  }

  /** Train the Eq. 3 weights on a (Synthetic) fixture with 20 targets
    * (sampled with seed 77) disjoint from the evaluation set, per §III-D.
    */
  def trainWeights(spark: SparkSession, f: Fixture): EvidenceWeights.Trained = {
    val nTrain = 20
    val trainTargets = sampleTargets(f.lake, nTrain + f.targets.size, seed = 77)
      .filterNot(f.targets.contains).take(nTrain)
    EvidenceWeights.train(spark, f.d3l, f.lake, trainTargets, f.cfg)
  }

  /** D³L's batched query over the fixture's targets, under Eq. 3 `weights` if given. */
  def queryD3L(spark: SparkSession, f: Fixture, weights: Option[Map[String, Double]] = None): D3L.QueryResult =
    D3L.queryAll(spark, f.d3l, f.targets, weights.fold(f.cfg)(w => f.cfg.copy(evidenceWeights = w)))

  def runD3L(spark: SparkSession, f: Fixture, weights: Option[Map[String, Double]] = None): SystemRun = {
    val res = queryD3L(spark, f, weights)
    SystemRun(
      res.ranked.map(r => Metrics.Ranked(r.tTable, r.sTable, r.rank)),
      res.aligned.map(a => Metrics.Align(a.tTable, a.tCol, a.sTable, a.sCol)),
      res.ranked.groupBy(_.tTable).map { case (t, rs) => t -> rs.map(_.sTable).toSet })
  }

  def runTus(f: Fixture): SystemRun = {
    val res = Tus.queryAll(f.tus, f.targets)
    SystemRun(res.ranked.map(r => Metrics.Ranked(r.tTable, r.sTable, r.rank)),
      res.aligned.map(a => Metrics.Align(a.tTable, a.tCol, a.sTable, a.sCol)), Map.empty)
  }

  def runAurum(f: Fixture): SystemRun = {
    val res = Aurum.queryAll(f.aurum, f.targets)
    SystemRun(res.ranked.map(r => Metrics.Ranked(r.tTable, r.sTable, r.rank)),
      res.aligned.map(a => Metrics.Align(a.tTable, a.tCol, a.sTable, a.sCol)), Map.empty)
  }

  /** D³L+J reachability closure for a given k: Algorithm 3 over the SA-join
    * graph, guarded by the target's index-evidence table set.
    */
  def d3lReachable(f: Fixture, run: SystemRun, k: Int): (String, String) => Set[String] = {
    val topKBy = run.ranks.groupBy(_.tTable).map { case (t, rs) =>
      t -> rs.filter(_.rank <= k).map(_.sTable).toSet
    }
    (t, si) => JoinPaths.reachable(
      f.saGraph, topKBy.getOrElse(t, Set.empty), run.guard.getOrElse(t, Set.empty),
      si, f.cfg.maxPathLen)
  }

  /** Aurum+J reachability closure: the same traversal over the PK/FK
    * candidate graph, no guards.
    */
  def aurumReachable(f: Fixture, run: SystemRun, k: Int): (String, String) => Set[String] = {
    val topKBy = run.ranks.groupBy(_.tTable).map { case (t, rs) =>
      t -> rs.filter(_.rank <= k).map(_.sTable).toSet
    }
    val graph = JoinPaths.SaJoinGraph(f.aurum.pkfkTableEdges)
    (t, si) => JoinPaths.reachable(graph, topKBy.getOrElse(t, Set.empty), _ => true, si, f.cfg.maxPathLen)
  }

  // ---- space accounting (Experiment 7 / Table II) --------------------------

  /** One Parquet file per frame, rows in a pseudo-random order drawn from
    * their content (the xxhash64 of every column), so the bytes depend on
    * the rows alone, not on the order they arrive in: Table II compares
    * bytes, not file counts or how well a frame's row order happens to
    * compress (EXPERIMENTS.md, Experiment 7).
    */
  def writeParquet(df: DataFrame, path: String): Unit =
    df.coalesce(1).sortWithinPartitions(xxhash64(df.columns.toSeq.map(col): _*))
      .write.mode("overwrite").parquet(path)

  def dirBytes(path: String): Long = {
    val p = Paths.get(path)
    if (!Files.exists(p)) return 0L
    val stream = Files.walk(p)
    try stream.filter(Files.isRegularFile(_)).mapToLong(Files.size(_)).sum()
    finally stream.close()
  }

  def fileBytes(path: String): Long = {
    val f = new java.io.File(path)
    if (f.exists()) f.length() else 0L
  }
}
