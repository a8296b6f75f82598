package repro.baselines

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.core.FeatureExtraction
import repro.eval.Experiments
import repro.lake.{Generators, LakeDf, MalformedLakes}
import repro.lsh.{Banding, RandomProjection, SimhashReference}

class TusSpec extends MalformedLakes {

  private lazy val kb = SyntheticKB.createDb(
    Files.createTempDirectory("tuskb").resolve("kb.duckdb").toString)
  private lazy val lake = Generators.synthetic(nBases = 4, derivedPerBase = 5, baseRows = 60, seed = 61)
  private lazy val idx = Tus.index(spark, LakeDf.toLong(spark, lake.tables), kb)
  private lazy val targets = lake.tables.take(3).map(_.id)
  private lazy val result = Tus.queryAll(idx, targets)
  private lazy val frames = Experiments.tusFrames(spark, idx)

  test("TUS indexes only textual attributes in SET/SEM/NL") {
    val numericAttrs = frames("catalog").filter(col("is_numeric")).select("attr")
      .collect().map(_.getString(0)).toSet
    val indexed = frames("signatures").select("attr").distinct()
      .collect().map(_.getString(0)).toSet
    assert((numericAttrs intersect indexed).isEmpty, "numeric attrs must be ignored")
  }

  test("all three measures produce signatures") {
    val ms = frames("signatures").select("measure").distinct().collect().map(_.getString(0)).toSet
    assert(ms == Set(Tus.Set_, Tus.Sem, Tus.Nl))
  }

  test("SEM signatures exist (KB resolved classes for lake tokens)") {
    assert(frames("signatures").filter(col("measure") === Tus.Sem).count() > 0)
  }

  test("the collected attributes hold exactly the signatures frame, in (table, column) order") {
    val frame = frames("signatures").select("table_id", "col_idx", "measure", "sig").collect()
      .map(r => (r.getString(0), r.getInt(1), r.getString(2), r.getSeq[Long](3))).toSet
    val collected = for {
      a <- idx.attrs
      (m, sig) <- Tus.measures.zip(a.sigs) if sig.nonEmpty
    } yield (a.tableId, a.colIdx, m, sig.toSeq)
    assert(collected.size == frame.size && collected.toSet == frame)
    assert(idx.attrs.map(a => (a.tableId, a.colIdx)) == idx.attrs.map(a => (a.tableId, a.colIdx)).sorted)
  }

  test("NL signatures are packed simhash bits, banded as the 0/1 bits are") {
    def ofMeasure(df: org.apache.spark.sql.DataFrame) = df.filter(col("measure") === Tus.Nl).collect().toSeq
    val sigs = ofMeasure(frames("signatures").select("attr", "sig", "measure")).map(r => r.getString(0) -> r.getSeq[Long](1).toArray)
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

  test("ranking is dense per target with scores in [0,1]") {
    targets.foreach { t =>
      val rows = result.ranked.filter(_.tTable == t)
      assert(rows.map(_.rank) == (1 to rows.length))
      rows.foreach(r => assert(r.score >= 0 && r.score <= 1))
    }
  }

  test("no self-matches") {
    assert(!result.ranked.exists(r => r.tTable == r.sTable))
  }

  test("on the clean synthetic lake, same-base tables rank near the top") {
    val top3 = result.ranked.filter(_.rank <= 3)
    val hits = top3.count(r => lake.truth.related(r.tTable, r.sTable))
    assert(hits >= top3.length / 3, s"$hits/${top3.length}")
  }

  test("alignments carry valid column indices") {
    result.aligned.foreach { a =>
      assert(a.tCol >= 0)
      assert(a.sCol >= 0)
    }
  }

  test("table ids containing '#' keep their alignments' column indexes") {
    val plain = lake.tables.take(6)
    val hashed = plain.map(t => t.copy(id = s"lake#${t.id}"))
    def aligned(tables: Seq[repro.lake.LakeTable], strip: String => String) = {
      Tus.queryAll(Tus.index(spark, LakeDf.toLong(spark, tables), kb), tables.take(2).map(_.id)).aligned
        .map(a => (strip(a.tTable), a.tCol, strip(a.sTable), a.sCol) -> a.bestP).toMap
    }
    val want = aligned(plain, identity)
    assert(want.nonEmpty)
    assert(aligned(hashed, _.stripPrefix("lake#")) == want)
  }

  test("queryTable works for an ad-hoc target and can exclude its lake copy") {
    val t = lake.tables.head
    val single = Tus.queryTable(idx, t, excludeId = Some(t.id))
    assert(!single.ranked.exists(_.sTable == t.id))
    assert(single.ranked.nonEmpty)
  }

  test("queryTable drops excludeId and the target's own id at the probe") {
    val (t, other) = (lake.tables.head, lake.tables(1))
    val renamed = Tus.queryTable(idx, t.copy(id = s"copy-of-${t.id}"), excludeId = Some(other.id))
    assert(renamed.ranked.exists(_.sTable == t.id), "the lake copy of a renamed target is a candidate")
    val member = Tus.queryTable(idx, t, excludeId = Some(other.id))
    Seq(renamed, member).foreach { res =>
      assert(!res.ranked.exists(_.sTable == other.id) && !res.aligned.exists(_.sTable == other.id))
      assert(res.ranked.map(_.rank) == (1 to res.ranked.size), "ranks leave a gap")
    }
    assert(!member.ranked.exists(_.sTable == t.id))
  }

  test("queryTable rejects a target whose table id is null or empty") {
    val t = lake.tables.head
    Seq[(String, String)]((null, "null table id"), ("", "empty table id")).foreach { case (id, what) =>
      val e = intercept[IllegalArgumentException](Tus.queryTable(idx, t.copy(id = id), excludeId = Some(t.id)))
      assert(e.getMessage.contains(what), e.getMessage)
    }
  }

  test("queryAll rejects a table the index does not hold, and answers an all-numeric one with nothing") {
    val err = intercept[IllegalArgumentException](Tus.queryAll(idx, Seq(targets.head, "no-such-table")))
    assert(err.getMessage.contains("no-such-table"), err.getMessage)
    val numeric = repro.lake.LakeTable("nums", "generated",
      IndexedSeq(repro.lake.LakeColumn("amount", (1 to 5).map(_.toString), "generated", isSubject = false)))
    val small = Tus.index(spark, LakeDf.toLong(spark, lake.tables.take(2) :+ numeric), kb)
    assert(small.profiles.exists(_.tableId == "nums") && !small.attrs.exists(_.tableId == "nums"))
    assert(Tus.queryAll(small, Seq("nums")) == Tus.TusResult(IndexedSeq.empty, IndexedSeq.empty))
  }

  test("queryAll starts no Spark job") {
    idx // index built before measuring
    val jobs = jobsStartedBy(Tus.queryAll(idx, lake.tables.map(_.id)))
    assert(jobs == 0, s"$jobs Spark jobs started by Tus.queryAll")
  }

  test("queryTable leaves no persisted RDD behind") {
    idx // index built before the snapshot
    val t = lake.tables.head
    assert(persistedBy(Tus.queryTable(idx, t, excludeId = Some(t.id))).isEmpty,
      "queryTable left persisted RDDs behind")
  }

  test("queryTable starts no Spark job") {
    idx // index built before measuring
    val t = lake.tables.head
    val jobs = jobsStartedBy(Tus.queryTable(idx, t.copy(id = s"copy-of-${t.id}"), excludeId = Some(t.id)))
    assert(jobs == 0, s"$jobs Spark jobs started by Tus.queryTable")
  }

  test("Tus.index leaves nothing persisted") {
    val added = persistedBy(Tus.index(spark, LakeDf.toLong(spark, lake.tables), kb))
    assert(added.isEmpty, s"${added.size} datasets persisted by the build")
  }

  test("Tus.index runs three Spark jobs: training, the KB lookups and the profiles' collect; two with a model") {
    val long = LakeDf.toLong(spark, lake.tables)
    val trained = jobsStartedBy(Tus.index(spark, long, kb))
    assert(trained == 3, s"$trained Spark jobs started by Tus.index")
    val reused = jobsStartedBy(Tus.index(spark, long, kb, reuseEmbeddings = Some(idx.embeddings)))
    assert(reused == 2, s"$reused Spark jobs started by Tus.index with a model")
  }

  test("Tus's trained model is D3L's model of the same lake") {
    val want = FeatureExtraction.extract(spark, LakeDf.toLong(spark, lake.tables)).embeddings
    assert(idx.embeddings.keySet == want.keySet && idx.embeddings.forall { case (t, v) => v.sameElements(want(t)) })
  }

  test("Tus's index does not depend on the long lake's row order or partitioning") {
    def shape(i: Tus.TusIndexes) = (
      i.profiles.map(p => (p.attr, p.colName, p.nValues, p.nNumeric, p.isNumeric, p.sigs.map(_.toSeq), p.classes)),
      Tus.queryAll(i, targets))
    val want = shape(idx)
    val long = LakeDf.toLong(spark, lake.tables)
    Seq("shuffled rows" -> long.orderBy(rand(7)), "7 partitions" -> long.repartition(7)).foreach {
      case (how, variant) => assert(shape(Tus.index(spark, variant, kb)) == want, how)
    }
  }

  rejectsMalformedLakes("Tus.index", Tus.index(spark, _, kb), lake.tables)
}
