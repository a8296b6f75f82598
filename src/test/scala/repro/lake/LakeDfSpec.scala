package repro.lake

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class LakeDfSpec extends SparkSpec {

  private lazy val lake = Generators.smallerReal(nClusters = 2, tablesPerCluster = 3, poolSize = 40, seed = 5)
  private lazy val long = LakeDf.toLong(spark, lake.tables).cache()

  test("long format has one row per cell") {
    val expected = lake.tables.map(t => t.arity * t.numRows).sum
    assert(long.count() == expected)
  }

  test("long format column names") {
    assert(long.columns.toSeq == Seq("table_id", "col_idx", "col_name", "row_idx", "value"))
  }

  test("a Synthetic lake's long format has the same columns and every table") {
    val syn = Generators.synthetic(nBases = 3, derivedPerBase = 3, seed = 1)
    val df = LakeDf.toLong(spark, syn.tables)
    assert(df.columns.toSeq == Seq("table_id", "col_idx", "col_name", "row_idx", "value"))
    assert(df.select("table_id").distinct().count() == syn.tables.size)
  }

  test("a Smaller-Real lake's long format has every table") {
    val real = Generators.smallerReal(nClusters = 2, tablesPerCluster = 3, seed = 1)
    val df = LakeDf.toLong(spark, real.tables)
    assert(df.select("table_id").distinct().count() == 6)
  }

  test("every table and column appears") {
    val ids = long.select("table_id").distinct().collect().map(_.getString(0)).toSet
    assert(ids == lake.tables.map(_.id).toSet)
    val arities = long.groupBy("table_id").agg(countDistinct("col_idx").as("a"))
      .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    lake.tables.foreach(t => assert(arities(t.id) == t.arity))
  }

  test("values round-trip through the long format") {
    val t = lake.tables.head
    val vals = long.filter(col("table_id") === t.id && col("col_idx") === 0)
      .orderBy("row_idx").select("value").collect().map(_.getString(0)).toSeq
    assert(vals == t.columns(0).values)
  }

  test("oracle: per-table cell counts match DuckDB") {
    import spark.implicits._
    val counts = long.groupBy($"table_id").agg(count(lit(1)) as "n_cells")
    Oracle.assertEquivalent(
      counts,
      "SELECT table_id, count(*) AS n_cells FROM lake GROUP BY table_id",
      "lake" -> long)
  }

  test("oracle: per-column distinct value counts match DuckDB") {
    import spark.implicits._
    val t = lake.tables.head.id
    val df = long.filter($"table_id" === t)
      .groupBy($"col_idx").agg(countDistinct($"value") as "n_distinct")
    Oracle.assertEquivalent(
      df,
      s"SELECT col_idx, count(DISTINCT value) AS n_distinct FROM lake WHERE table_id = '$t' GROUP BY col_idx",
      "lake" -> long)
  }
}
