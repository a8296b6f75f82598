package repro.baselines

import java.nio.file.Files
import repro.SparkSpec

class SyntheticKBSpec extends SparkSpec {

  private lazy val dbPath: String = {
    val dir = Files.createTempDirectory("kbspec")
    SyntheticKB.createDb(dir.resolve("kb.duckdb").toString)
  }

  test("entries are lower-case single words with unique keys") {
    val es = SyntheticKB.entries
    assert(es.nonEmpty)
    es.foreach { case (t, _) =>
      assert(t == t.toLowerCase)
      assert(!t.contains(" "))
    }
    assert(es.map(_._1).distinct.size == es.size)
  }

  test("entries do not depend on the JVM's default locale") {
    val want = SyntheticKB.entries
    val saved = java.util.Locale.getDefault
    try {
      java.util.Locale.setDefault(java.util.Locale.forLanguageTag("tr"))
      assert(SyntheticKB.entries == want)
    } finally java.util.Locale.setDefault(saved)
  }

  test("entries cover the expected classes") {
    val classes = SyntheticKB.entries.map(_._2).toSet
    assert(classes.contains("City"))
    assert(classes.contains("Organization"))
    assert(classes.contains("StreetType"))
  }

  test("createDb produces a queryable DuckDB file") {
    val conn = java.sql.DriverManager.getConnection(s"jdbc:duckdb:$dbPath")
    try {
      val rs = conn.createStatement().executeQuery("SELECT count(*) FROM kb")
      rs.next()
      assert(rs.getLong(1) == SyntheticKB.entries.size)
    } finally conn.close()
  }

  test("mapTokens resolves known tokens to their classes") {
    val mapped = SyntheticKB.mapTokens(Seq("manchester", "street", "ltd", "zzzunknown"), dbPath)
    assert(mapped("manchester") == "City")
    assert(mapped("street") == "StreetType")
    assert(mapped("ltd") == "Organization")
    assert(!mapped.contains("zzzunknown"))
  }

  test("mapTokens deduplicates input tokens") {
    assert(SyntheticKB.mapTokens(Iterator("manchester", "manchester", "manchester"), dbPath) == Map("manchester" -> "City"))
  }

  test("mapTokens on empty input is empty") {
    assert(SyntheticKB.mapTokens(Nil, dbPath).isEmpty)
  }

  test("city names from the vocabulary resolve to City") {
    val cities = repro.lake.Vocab.cities.take(10).map(_.toLowerCase)
    val mapped = SyntheticKB.mapTokens(cities, dbPath)
    assert(mapped.size == 10)
    mapped.values.foreach(c => assert(c == "City"))
  }
}
