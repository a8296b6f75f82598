package repro.baselines

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import repro.{PropSupport, SparkSpec}
import repro.lake.{Generators, LakeColumn, LakeDf, LakeTable}

/** The served TUS and Aurum queries (plain Scala on the driver) answer as
  * their Spark-SQL reference ([[BaselineSqlReference]]) does, on the
  * `TusSpec`/`AurumSpec` lakes, on those lakes with `#` in every table id,
  * and on generated lakes.
  *  - Aurum: the profiles (catalog, signatures, buckets, numeric ranges),
  *    the EKG (edges with their similarities) and the PK/FK graph are equal
  *    exactly, and so are rankings (score, covered columns, rank) and
  *    alignments.
  *  - TUS: the profiles (catalog, SET/SEM/NL signatures, buckets) and the
  *    trained model are equal exactly, and so are alignments; scores agree
  *    within 1e-12 (a sum's order is not fixed in Spark); ranks are equal
  *    except inside groups of reference scores within 1e-12 of each other.
  */
class BaselineEquivalenceSpec extends SparkSpec with PropSupport {

  private val Eps = 1e-12

  private lazy val kb = SyntheticKB.createDb(
    Files.createTempDirectory("tuskb").resolve("kb.duckdb").toString)
  private lazy val tusLake = Generators.synthetic(nBases = 4, derivedPerBase = 5, baseRows = 60, seed = 61).tables
  private lazy val aurumLake = Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 60, seed = 71).tables

  private def hashed(tables: Seq[LakeTable]): Seq[LakeTable] = tables.map(t => t.copy(id = s"lake#${t.id}"))

  private def assertSameTus(what: String, got: Tus.TusResult, want: Tus.TusResult): Unit = {
    def byPair(as: Seq[Tus.Aligned]) = as.map(a => (a.tTable, a.tCol, a.sTable, a.sCol) -> a.bestP).toMap
    assert(byPair(got.aligned).size == got.aligned.size, s"$what: an attribute pair is aligned twice")
    assert(byPair(got.aligned) == byPair(want.aligned), s"$what: alignments differ")
    val (g, w) = (got.ranked.groupBy(_.tTable), want.ranked.groupBy(_.tTable))
    assert(g.keySet == w.keySet, s"$what: different targets answered")
    g.foreach { case (t, rs) =>
      val ws = w(t).sortBy(_.rank)
      assert(rs.map(_.rank) == (1 to rs.size), s"$what/$t: ranks not 1..n in order")
      assert(rs.map(_.sTable).toSet == ws.map(_.sTable).toSet, s"$what/$t: different candidate tables")
      val wantBy = ws.map(r => r.sTable -> r).toMap
      rs.foreach { r =>
        val x = wantBy(r.sTable)
        assert(math.abs(r.score - x.score) <= Eps, s"$what/$t/${r.sTable}: score ${r.score} vs ${x.score}")
        if (r.rank != x.rank)
          assert(math.abs(ws(r.rank - 1).score - x.score) <= Eps, s"$what/$t/${r.sTable}: rank ${r.rank} vs ${x.rank}, not a tie")
      }
    }
  }

  private def assertSameAurum(what: String, got: Aurum.AurumResult, want: Aurum.AurumResult): Unit = {
    assert(got.ranked.size == want.ranked.size && got.ranked.toSet == want.ranked.toSet, s"$what: rankings differ")
    assert(got.aligned.size == want.aligned.size && got.aligned.toSet == want.aligned.toSet, s"$what: alignments differ")
    got.ranked.groupBy(_.tTable).foreach { case (t, rs) =>
      assert(rs.map(_.rank) == (1 to rs.size), s"$what/$t: ranks not 1..n in order")
    }
  }

  /** TUS's kernel profiles every column as the Spark-SQL build
    * ([[BaselineSqlReference.tusProfiles]]) does: equal frame schemas,
    * catalog rows, SET/SEM/NL signatures and buckets, and a trained model
    * equal to the reference's `trainEmbeddings`. Then every table of `tables`
    * as a batched target, and `queryTable` of the first table, once as a
    * lake member excluding the second table and once renamed, excluding its
    * lake copy, answer as the reference queries over the reference profiles.
    */
  private def checkTus(what: String, tables: Seq[LakeTable]): Unit = {
    val long = LakeDf.toLong(spark, tables)
    val idx = Tus.index(spark, long, kb)
    val ref = BaselineSqlReference.tusProfiles(spark, long, kb)
    assert(idx.embeddings.keySet == ref.embeddings.keySet &&
      idx.embeddings.forall { case (t, v) => v.sameElements(ref.embeddings(t)) }, s"$what: embeddings differ")
    assertSameProfiles(what, Seq(idx.catalog, idx.signatures, idx.buckets), Seq(ref.catalog, ref.signatures, ref.buckets),
      idx.attrs.map(_.sigs.count(_.nonEmpty)).sum)
    val ids = tables.map(_.id)
    val served = Tus.queryAll(idx, ids)
    assert(served.ranked.map(_.tTable).distinct == ids.filter(served.ranked.map(_.tTable).toSet), s"$what: target order")
    assertSameTus(s"$what queryAll", served, BaselineSqlReference.tusQueryAll(spark, ref, ids))
    val (t, other) = (tables.head, tables(1))
    Seq(t -> Some(other.id), t.copy(id = s"copy-of-${t.id}") -> Some(t.id)).foreach { case (target, ex) =>
      assertSameTus(s"$what queryTable(${target.id}, excluding $ex)", Tus.queryTable(idx, target, ex),
        BaselineSqlReference.tusQueryTable(spark, ref, kb, target, ex))
    }
  }

  /** The `catalog`, `signatures` and `buckets` frames `got` have the schemas
    * and rows of the reference's `want`, with `nSigs` signatures, each
    * (attr, measure) signature equal.
    */
  private def assertSameProfiles(what: String, got: Seq[DataFrame], want: Seq[DataFrame], nSigs: Int): Unit = {
    got.zip(want).foreach { case (g, w) =>
      assert(g.schema == w.schema, s"$what: ${w.columns.mkString(", ")} schemas differ")
    }
    val (Seq(catalog, signatures, buckets), Seq(wantCatalog, wantSignatures, wantBuckets)) = (got, want)
    def rows(df: DataFrame) = df.collect().toSeq.map(_.toSeq).sortBy(_.toString)
    assert(rows(catalog) == rows(wantCatalog), s"$what: catalogs differ")
    def sigs(df: DataFrame) =
      df.select("attr", "measure", "sig").collect().map(r => (r.getString(0), r.getString(1)) -> r.getSeq[Long](2)).toMap
    val (g, w) = (sigs(signatures), sigs(wantSignatures))
    assert(g.keySet == w.keySet && g.size == nSigs, s"$what: different signatures")
    val differ = w.keys.filter(k => g(k) != w(k)).toSeq.sorted
    assert(differ.isEmpty, s"$what: signatures differ for ${differ.mkString(", ")}")
    assert(rows(buckets) == rows(wantBuckets), s"$what: buckets differ")
  }

  /** Aurum's kernel profiles every column as the Spark-SQL profiling
    * ([[BaselineSqlReference.aurumProfiles]]) does: equal catalog rows, AN,
    * AC and AT signatures, buckets and numeric ranges, and equal frame
    * schemas. The driver's EKG and PK/FK graph equal the Spark-SQL
    * self-join's over the reference profiles, and every table of `tables`
    * as a target answers as the reference query.
    */
  private def checkAurum(what: String, tables: Seq[LakeTable]): Unit = {
    val long = LakeDf.toLong(spark, tables)
    val idx = Aurum.index(spark, long)
    val ref = BaselineSqlReference.aurumProfiles(spark, long)
    assertSameProfiles(what, Seq(idx.catalog, idx.signatures, idx.buckets), Seq(ref.catalog, ref.signatures, ref.buckets),
      idx.profiles.map(_.sigs.length).sum)
    val ranges = ref.ranges.collect().map(r => r.getString(0) -> (r.getDouble(1), r.getDouble(2))).toMap
    assert(idx.profiles.flatMap(p => p.range.map(p.attr -> _)).toMap == ranges, s"$what: numeric ranges differ")

    val (edges, pkfk) = BaselineSqlReference.aurumEkg(spark, ref)
    assert(idx.edges.size == edges.size && idx.edges.toSet == edges.toSet, s"$what: EKG edges differ")
    assert(idx.pkfkTableEdges == pkfk, s"$what: PK/FK graphs differ")
    val ids = tables.map(_.id)
    assertSameAurum(what, Aurum.queryAll(idx, ids), BaselineSqlReference.aurumQueryAll(spark, idx, ids))
  }

  /** Two numeric columns of different tables reach +∞ (`1e999`), so their
    * range overlap is ∞/∞: NaN, which Spark SQL orders above every number.
    */
  private lazy val infiniteRangeLake: Seq[LakeTable] = {
    def table(id: String, name: String, nums: Seq[String], names: Seq[String]) = LakeTable(id, "fixed", Vector(
      LakeColumn("name", names.toVector, "fixed.name", isSubject = true),
      LakeColumn(name, nums.toVector, "fixed.num", isSubject = false)))
    Seq(
      table("a", "amount", Seq("1", "1e999", "7"), Seq("ann", "bob", "cy")),
      table("b", "total", Seq("2", "1e999", "5"), Seq("bob", "cy", "dee")),
      table("c", "count", Seq("3", "4", "6"), Seq("eve", "fay", "gus")))
  }

  test("served TUS answers equal the Spark-SQL reference on the TusSpec lake") {
    checkTus("TusSpec lake", tusLake.take(12))
  }

  test("served TUS answers equal the Spark-SQL reference with '#' in every table id") {
    checkTus("hashed TusSpec lake", hashed(tusLake.take(8)))
  }

  test("served Aurum answers equal the Spark-SQL reference on the AurumSpec lake") {
    checkAurum("AurumSpec lake", aurumLake)
  }

  test("served Aurum answers equal the Spark-SQL reference with '#' in every table id") {
    checkAurum("hashed AurumSpec lake", hashed(aurumLake))
  }

  test("Aurum's EKG equals the Spark-SQL reference where numeric ranges reach infinity") {
    checkAurum("infinite-range lake", infiniteRangeLake)
  }

  test("on generated lakes, served TUS and Aurum answers equal the Spark-SQL reference") {
    forAllGen(generatedLakes, minSuccessful = 3, seed = Some(11L)) { tables =>
      checkTus("generated lake", tables)
      checkAurum("generated lake", tables)
    }
  }
}
