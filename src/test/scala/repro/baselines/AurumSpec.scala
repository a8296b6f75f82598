package repro.baselines

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.JoinPaths
import repro.lake.{Generators, LakeDf}

class AurumSpec extends SparkSpec {

  private lazy val lake = Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 60, seed = 71)
  private lazy val idx = Aurum.index(spark, LakeDf.toLong(spark, lake.tables))
  private lazy val targets = lake.tables.take(3).map(_.id)
  private lazy val result = Aurum.queryAll(spark, idx, targets)

  test("EKG has edges") {
    assert(idx.edges.count() > 0)
  }

  test("edges respect the similarity threshold") {
    val bad = idx.edges.filter(col("sim") < idx.edgeThreshold).count()
    assert(bad == 0)
  }

  test("edges never connect a table to itself") {
    assert(idx.edges.filter(col("a_table") === col("b_table")).count() == 0)
  }

  test("adjacency is the collected mirror of the edge frame") {
    val dfCount = idx.edges.count()
    val adjCount = idx.adjacency.values.map(_.size).sum / 2 // each edge under both tables
    assert(adjCount == dfCount, s"df=$dfCount adj=$adjCount")
  }

  test("profiles exist for all three measures") {
    val ms = idx.signatures.select("measure").distinct().collect().map(_.getString(0)).toSet
    assert(ms == Set(Aurum.An, Aurum.Ac, Aurum.At))
  }

  test("ranking is dense with certainty scores") {
    targets.foreach { t =>
      val rows = result.ranking.filter(col("t_table") === t).orderBy("rank").collect()
      assert(rows.map(_.getAs[Int]("rank")).toSeq == (1 to rows.length))
      val scores = rows.map(_.getAs[Double]("score")).toSeq
      assert(scores == scores.sorted.reverse) // certainty: descending
    }
  }

  test("graphQuery matches the edge structure for a target") {
    val t = targets.head
    val fromGraph = Aurum.graphQuery(idx, t).map(_._1).toSet
    val fromDf = result.ranking.filter(col("t_table") === t)
      .select("s_table").collect().map(_.getString(0)).toSet
    assert(fromGraph == fromDf)
  }

  test("graphQuery is sorted by descending similarity") {
    val res = Aurum.graphQuery(idx, targets.head)
    val sims = res.map(_._2)
    assert(sims == sims.sorted.reverse)
  }

  test("numeric range edges can relate numeric columns") {
    // Patients-style columns within a cluster share a distribution → ranges
    // overlap → AR edges (or AN edges via names) exist between them; just
    // assert the pipeline produced *some* edge between numeric attributes.
    val numericAttrs = idx.catalog.filter(col("is_numeric")).select("attr")
      .collect().map(_.getString(0)).toSet
    val numEdges = idx.edges.collect().count { r =>
      numericAttrs.contains(r.getAs[String]("a_attr")) &&
        numericAttrs.contains(r.getAs[String]("b_attr"))
    }
    assert(numEdges > 0, "expected at least one numeric-numeric edge")
  }

  test("PK/FK join graph is symmetric and self-loop free") {
    idx.pkfkTableEdges.foreach { case (t, ns) =>
      assert(!ns.contains(t))
      ns.foreach(n => assert(idx.pkfkTableEdges.getOrElse(n, Set.empty).contains(t)))
    }
  }

  test("joinReachable respects topK exclusion and path cap") {
    if (idx.pkfkTableEdges.nonEmpty) {
      val graph = JoinPaths.SaJoinGraph(idx.pkfkTableEdges)
      val start = idx.pkfkTableEdges.keys.head
      val others = idx.pkfkTableEdges(start)
      val blocked = JoinPaths.reachable(graph, topK = others + start, _ => true, start)
      assert((blocked intersect others).isEmpty)
      assert(JoinPaths.reachable(graph, Set(start), _ => true, start, maxLen = 1).isEmpty)
      assert(JoinPaths.reachable(graph, Set(start), _ => true, start, maxLen = 2) == others)
    }
  }

  test("table ids containing '#' keep their edges' column indexes") {
    val plain = lake.tables.take(6)
    val hashed = plain.map(t => t.copy(id = s"lake#${t.id}"))
    def edges(tables: Seq[repro.lake.LakeTable], strip: String => String) =
      Aurum.index(spark, LakeDf.toLong(spark, tables)).edges
        .select("a_table", "a_col", "b_table", "b_col", "sim").collect()
        .map(r => (strip(r.getString(0)), r.getInt(1), strip(r.getString(2)), r.getInt(3), r.getDouble(4))).toSet
    val want = edges(plain, identity)
    assert(want.nonEmpty)
    assert(edges(hashed, _.stripPrefix("lake#")) == want)
  }

  test("top of the Aurum ranking is enriched in truly related tables") {
    val top3 = result.ranking.filter(col("rank") <= 3).select("t_table", "s_table").collect()
    val hits = top3.count(r => lake.truth.related(r.getString(0), r.getString(1)))
    assert(hits >= 1, s"$hits/${top3.length}")
  }
}
