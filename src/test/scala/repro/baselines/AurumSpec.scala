package repro.baselines

import org.apache.spark.sql.functions._
import repro.core.{D3LConfig, JoinPaths}
import repro.eval.Experiments
import repro.lake.{Generators, LakeDf, MalformedLakes}
import repro.lsh.{Banding, RandomProjection, SimhashReference}

class AurumSpec extends MalformedLakes {

  private lazy val lake = Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 60, seed = 71)
  private lazy val idx = Aurum.index(spark, LakeDf.toLong(spark, lake.tables))
  private lazy val targets = lake.tables.take(3).map(_.id)
  private lazy val result = Aurum.queryAll(idx, targets)
  private lazy val frames = Experiments.aurumFrames(spark, idx)

  test("EKG has edges") {
    assert(idx.edges.nonEmpty)
  }

  test("edges respect the similarity threshold") {
    val bad = idx.edges.count(_.sim < Aurum.EdgeThreshold)
    assert(bad == 0)
  }

  test("edges never connect a table to itself") {
    assert(idx.edges.count(e => e.aTable == e.bTable) == 0)
  }

  test("each edge is one ordered attribute pair, held once") {
    assert(idx.edges.forall(e => e.aAttr < e.bAttr))
    assert(idx.edges.map(e => (e.aAttr, e.bAttr)).distinct.size == idx.edges.size)
    assert(idx.edges.forall(e => e.aAttr == s"${e.aTable}#${e.aCol}" && e.bAttr == s"${e.bTable}#${e.bCol}"))
  }

  test("profiles exist for all three measures") {
    val ms = frames("profiles").select("measure").distinct().collect().map(_.getString(0)).toSet
    assert(ms == Set(Aurum.An, Aurum.Ac, Aurum.At))
  }

  test("TF-IDF (AT) signatures are packed simhash bits, banded as the 0/1 bits are") {
    def ofMeasure(df: org.apache.spark.sql.DataFrame) = df.filter(col("measure") === Aurum.At).collect().toSeq
    val sigs = ofMeasure(frames("profiles").select("attr", "sig", "measure")).map(r => r.getString(0) -> r.getSeq[Long](1).toArray)
    val frame = ofMeasure(frames("buckets").select("attr", "band", "bucket", "measure"))
      .groupMap(_.getString(0))(r => (r.getInt(1), r.getLong(2)))
    assert(sigs.exists(_._2.nonEmpty))
    sigs.foreach { case (attr, sig) =>
      assert(sig.isEmpty || sig.length == RandomProjection.NumBits / 64, s"$attr: ${sig.length} longs")
      val want = SimhashReference.buckets(SimhashReference.unpack(sig), Banding.simhashLevels)
      assert(Banding.buckets(sig, Banding.simhashLevels) == want, attr)
      assert(frame.getOrElse(attr, Nil).sorted == want.sorted, attr)
    }
  }

  test("ranking is dense with certainty scores") {
    targets.foreach { t =>
      val rows = result.ranked.filter(_.tTable == t)
      assert(rows.map(_.rank) == (1 to rows.length))
      val scores = rows.map(_.score)
      assert(scores == scores.sorted.reverse) // certainty: descending
    }
  }

  // The EKG graph query for one target is Aurum.queryAll of that target alone: it ranks
  // exactly the tables the target's edges reach, each at its best edge.
  test("graphQuery matches the edge structure for a target") {
    val t = targets.head
    val fromEdges = idx.edges.collect {
      case e if e.aTable == t => e.bTable -> e.sim
      case e if e.bTable == t => e.aTable -> e.sim
    }.groupMapReduce(_._1)(_._2)(math.max)
    val ranked = Aurum.queryAll(idx, Seq(t)).ranked
    assert(ranked.map(_.sTable).toSet == fromEdges.keySet)
    assert(ranked.map(r => r.sTable -> r.score).toMap == fromEdges)
    assert(ranked == result.ranked.filter(_.tTable == t), "single-target and batched rankings differ")
  }

  // Descending score; ties go to more covered columns, then to the smaller table id.
  test("graphQuery is sorted by descending similarity") {
    val res = Aurum.queryAll(idx, Seq(targets.head)).ranked
    val sims = res.map(_.score)
    assert(sims == sims.sorted.reverse)
    res.zip(res.drop(1)).foreach { case (a, b) =>
      if (a.score == b.score) assert(a.nCov > b.nCov || (a.nCov == b.nCov && a.sTable < b.sTable), s"$a before $b")
    }
  }

  test("numeric range edges can relate numeric columns") {
    // Patients-style columns within a cluster share a distribution → ranges
    // overlap → AR edges (or AN edges via names) exist between them; just
    // assert the pipeline produced *some* edge between numeric attributes.
    val numericAttrs = frames("catalog").filter(col("is_numeric")).select("attr")
      .collect().map(_.getString(0)).toSet
    val numEdges = idx.edges.count(e => numericAttrs.contains(e.aAttr) && numericAttrs.contains(e.bAttr))
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
      val blocked = JoinPaths.reachable(graph, topK = others + start, _ => true, start, D3LConfig().maxPathLen)
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
        .map(e => (strip(e.aTable), e.aCol, strip(e.bTable), e.bCol, e.sim)).toSet
    val want = edges(plain, identity)
    assert(want.nonEmpty)
    assert(edges(hashed, _.stripPrefix("lake#")) == want)
  }

  test("top of the Aurum ranking is enriched in truly related tables") {
    val top3 = result.ranked.filter(_.rank <= 3)
    val hits = top3.count(r => lake.truth.related(r.tTable, r.sTable))
    assert(hits >= 1, s"$hits/${top3.length}")
  }

  test("Aurum.index leaves nothing persisted") {
    val added = persistedBy(Aurum.index(spark, LakeDf.toLong(spark, lake.tables)))
    assert(added.isEmpty, s"${added.size} datasets persisted by the build")
  }

  test("Aurum.index runs two Spark jobs: document frequencies and the profiles' collect") {
    val long = LakeDf.toLong(spark, lake.tables)
    val jobs = jobsStartedBy(Aurum.index(spark, long))
    assert(jobs == 2, s"$jobs Spark jobs started by Aurum.index")
  }

  test("Aurum's index does not depend on the long lake's row order or partitioning") {
    def shape(i: Aurum.AurumIndexes) = (
      i.profiles.map(p => (p.attr, p.colName, p.nValues, p.nDistinct, p.nNumeric, p.isNumeric, p.uniqueness, p.range,
        p.sigs.toSeq.map(_.toSeq))),
      i.edges, i.pkfkTableEdges, Aurum.queryAll(i, targets))
    val want = shape(idx)
    val long = LakeDf.toLong(spark, lake.tables)
    Seq("shuffled rows" -> long.orderBy(rand(7)), "7 partitions" -> long.repartition(7)).foreach {
      case (how, variant) => assert(shape(Aurum.index(spark, variant)) == want, how)
    }
  }

  rejectsMalformedLakes("Aurum.index", Aurum.index(spark, _), lake.tables)

  test("queryAll starts no Spark job") {
    idx // index built before measuring
    val jobs = jobsStartedBy(Aurum.queryAll(idx, lake.tables.map(_.id)))
    assert(jobs == 0, s"$jobs Spark jobs started by Aurum.queryAll")
  }

  test("queryAll rejects a table the index does not hold") {
    val err = intercept[IllegalArgumentException](Aurum.queryAll(idx, Seq(targets.head, "no-such-table")))
    assert(err.getMessage.contains("no-such-table"), err.getMessage)
  }
}
