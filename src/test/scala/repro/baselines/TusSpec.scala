package repro.baselines

import java.nio.file.Files
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.lake.{Generators, LakeDf}

class TusSpec extends SparkSpec {

  private lazy val kb = SyntheticKB.createDb(
    Files.createTempDirectory("tuskb").resolve("kb.duckdb").toString)
  private lazy val lake = Generators.synthetic(nBases = 4, derivedPerBase = 5, baseRows = 60, seed = 61)
  private lazy val idx = Tus.index(spark, LakeDf.toLong(spark, lake.tables), kb).cacheAll()
  private lazy val targets = lake.tables.take(3).map(_.id)
  private lazy val result = Tus.queryAll(spark, idx, targets)

  test("TUS indexes only textual attributes in SET/SEM/NL") {
    val numericAttrs = idx.catalog.filter(col("is_numeric")).select("attr")
      .collect().map(_.getString(0)).toSet
    val indexed = idx.signatures.select("attr").distinct()
      .collect().map(_.getString(0)).toSet
    assert((numericAttrs intersect indexed).isEmpty, "numeric attrs must be ignored")
  }

  test("all three measures produce signatures") {
    val ms = idx.signatures.select("measure").distinct().collect().map(_.getString(0)).toSet
    assert(ms == Set(Tus.Set_, Tus.Sem, Tus.Nl))
  }

  test("SEM signatures exist (KB resolved classes for lake tokens)") {
    assert(idx.signatures.filter(col("measure") === Tus.Sem).count() > 0)
  }

  test("ranking is dense per target with scores in [0,1]") {
    targets.foreach { t =>
      val rows = result.ranking.filter(col("t_table") === t)
        .orderBy("rank").collect()
      assert(rows.map(_.getAs[Int]("rank")).toSeq == (1 to rows.length))
      rows.foreach(r => assert(r.getAs[Double]("score") >= 0 && r.getAs[Double]("score") <= 1))
    }
  }

  test("no self-matches") {
    assert(result.ranking.filter(col("t_table") === col("s_table")).count() == 0)
  }

  test("on the clean synthetic lake, same-base tables rank near the top") {
    val top3 = result.ranking.filter(col("rank") <= 3)
      .select("t_table", "s_table").collect()
    val hits = top3.count(r => lake.truth.related(r.getString(0), r.getString(1)))
    assert(hits >= top3.length / 3, s"$hits/${top3.length}")
  }

  test("alignments carry valid column indices") {
    result.alignments.collect().foreach { r =>
      assert(r.getAs[Int]("t_col") >= 0)
      assert(r.getAs[Int]("s_col") >= 0)
    }
  }

  test("table ids containing '#' keep their alignments' column indexes") {
    val plain = lake.tables.take(6)
    val hashed = plain.map(t => t.copy(id = s"lake#${t.id}"))
    def aligned(tables: Seq[repro.lake.LakeTable], strip: String => String) = {
      val i = Tus.index(spark, LakeDf.toLong(spark, tables), kb)
      Tus.queryAll(spark, i, tables.take(2).map(_.id)).alignments
        .select("t_table", "t_col", "s_table", "s_col", "best_p").collect()
        .map(r => (strip(r.getString(0)), r.getInt(1), strip(r.getString(2)), r.getInt(3)) -> r.getDouble(4)).toMap
    }
    val want = aligned(plain, identity)
    assert(want.nonEmpty)
    assert(aligned(hashed, _.stripPrefix("lake#")) == want)
  }

  test("queryTable works for an ad-hoc target and can exclude its lake copy") {
    val t = lake.tables.head
    val single = Tus.queryTable(spark, idx, t, excludeId = Some(t.id))
    assert(single.ranking.filter(col("s_table") === t.id).count() == 0)
    assert(single.ranking.count() > 0)
  }
}
