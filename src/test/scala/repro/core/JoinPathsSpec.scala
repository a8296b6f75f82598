package repro.core

import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.lake.{Generators, LakeDf}
import repro.lsh.MinHash

class JoinPathsSpec extends SparkSpec {

  private lazy val lake = Generators.smallerReal(nClusters = 2, tablesPerCluster = 6, poolSize = 60, seed = 41)
  private lazy val idx = D3L.index(spark, LakeDf.toLong(spark, lake.tables))
  private lazy val graph = JoinPaths.buildGraph(spark, idx)

  test("SA-join graph connects tables that share subject entities") {
    // Tables of one cluster sample from one entity pool → subject-attribute
    // token overlap → edges must exist within clusters.
    assert(graph.edgeCount > 0, "expected at least one SA-join edge")
  }

  test("SA-join edges are symmetric") {
    graph.neighbours.foreach { case (t, ns) =>
      ns.foreach(n => assert(graph.adjacent(n).contains(t), s"$t→$n not symmetric"))
    }
  }

  test("no self-loops") {
    graph.neighbours.foreach { case (t, ns) => assert(!ns.contains(t)) }
  }

  test("edges mostly stay within clusters") {
    // Cross-cluster SA edges are legitimate (an area-name subject genuinely
    // joins city columns elsewhere), but same-pool subject overlap must
    // still dominate.
    val all = graph.neighbours.toSeq.flatMap { case (t, ns) => ns.map(t -> _) }
    val within = all.count { case (a, b) => lake.table(a).cluster == lake.table(b).cluster }
    assert(within >= all.size * 0.55, s"$within/${all.size} edges within clusters")
  }

  /** SA-join edges by brute force over the index frames: every (subject
    * attribute, attribute of another table) pair with 𝕍 signatures that
    * shares at least one 𝕍 bucket, under the same Ĵ and overlap rule.
    */
  private def bruteForceEdges(idx: LakeIndexes, cfg: D3LConfig): Set[(String, String)] = {
    val v = col("evidence") === Evidence.V
    val buckets = idx.buckets.filter(v).select("attr", "band", "bucket").collect()
      .map(r => r.getString(0) -> (r.getInt(1), r.getLong(2))).toSeq.groupMap(_._1)(_._2).map { case (a, bs) => a -> bs.toSet }
    val sigs = idx.signatures.filter(v).select("attr", "sig").collect()
      .map(r => r.getString(0) -> r.getSeq[Long](1).toArray).toMap
    val attrs = idx.catalog.select("attr", "table_id", "tset_size").collect()
      .map(r => r.getString(0) -> (r.getString(1), r.getLong(2))).toMap
    val subjects = idx.subjects.select("attr").collect().map(_.getString(0)).toSet
    (for {
      a <- subjects.toSeq if sigs.contains(a)
      b <- sigs.keys.toSeq
      ((ta, na), (tb, nb)) = (attrs(a), attrs(b))
      if ta != tb && buckets.getOrElse(a, Set.empty).exists(buckets.getOrElse(b, Set.empty))
      jac = MinHash.estimateJaccard(sigs(a), sigs(b))
      if jac * (na + nb) / ((1.0 + jac) * math.min(na, nb)) >= cfg.minJoinOverlap && jac > 0.0
    } yield if (ta < tb) (ta, tb) else (tb, ta)).toSet
  }

  private def edges(g: JoinPaths.SaJoinGraph): Set[(String, String)] =
    g.neighbours.toSeq.flatMap { case (t, ns) => ns.map(n => if (t < n) (t, n) else (n, t)) }.toSet

  test("SA-join graph equals the brute-force edge set on a Synthetic and a Smaller-Real lake") {
    val synthetic = Generators.synthetic(nBases = 4, derivedPerBase = 5, baseRows = 60, seed = 42)
    Seq(idx, D3L.index(spark, LakeDf.toLong(spark, synthetic.tables))).foreach { i =>
      val want = bruteForceEdges(i, D3LConfig())
      assert(want.nonEmpty)
      assert(edges(JoinPaths.buildGraph(spark, i)) == want)
    }
  }

  // ---- Algorithm 3 on a hand-built graph -----------------------------------

  private val g = JoinPaths.SaJoinGraph(Map(
    "s1" -> Set("x1", "x2"),
    "x1" -> Set("s1", "x3"),
    "x2" -> Set("s1"),
    "x3" -> Set("x1"),
    "s2" -> Set("x9"),
    "x9" -> Set("s2"),
  ))

  test("findJoinPaths enumerates simple paths from the start node") {
    val paths = JoinPaths.findJoinPaths(g, topK = Set("s1"),
      relatedToTarget = Set("x1", "x2", "x3"), start = "s1")
    assert(paths.contains(List("s1", "x1")))
    assert(paths.contains(List("s1", "x2")))
    assert(paths.contains(List("s1", "x1", "x3")))
  }

  test("paths never revisit nodes (acyclic)") {
    val paths = JoinPaths.findJoinPaths(g, Set("s1"), Set("x1", "x2", "x3"), "s1")
    paths.foreach(p => assert(p.distinct == p))
  }

  test("paths never pass through other top-k tables") {
    val paths = JoinPaths.findJoinPaths(g, topK = Set("s1", "x1"),
      relatedToTarget = Set("x1", "x2", "x3"), start = "s1")
    assert(!paths.exists(_.tail.contains("x1")))
    assert(paths.contains(List("s1", "x2")))
  }

  test("paths require index evidence of target relatedness") {
    val paths = JoinPaths.findJoinPaths(g, Set("s1"), relatedToTarget = Set("x2"), "s1")
    assert(paths == Set(List("s1", "x2")))
  }

  test("maxLen caps path length") {
    val paths = JoinPaths.findJoinPaths(g, Set("s1"), Set("x1", "x2", "x3"), "s1", maxLen = 2)
    assert(paths.forall(_.size <= 2))
    assert(!paths.contains(List("s1", "x1", "x3")))
  }

  test("reachable returns path members minus the start") {
    val r = JoinPaths.reachable(g, Set("s1"), Set("x1", "x2", "x3"), "s1")
    assert(r == Set("x1", "x2", "x3"))
  }

  test("disconnected start yields no paths") {
    assert(JoinPaths.findJoinPaths(g, Set("s2"), Set("x1"), "s2").isEmpty)
    assert(JoinPaths.reachable(g, Set("s2"), Set("x1"), "s2").isEmpty)
  }

  test("graph lookup of unknown table is empty") {
    assert(graph.adjacent("nonexistent").isEmpty)
  }
}
