package repro.baselines

import java.sql.DriverManager
import java.util.{Locale, Properties}
import org.apache.spark.sql.DataFrame

/** Synthetic knowledge base — the offline stand-in for YAGO in the TUS
  * baseline (DESIGN.md §4.2).
  *
  * YAGO's role in TUS is an *external* store mapping entity tokens to
  * semantic classes, consulted for every token of every value at indexing
  * and at query time — the paper identifies exactly this as TUS's
  * performance leak (Experiments 4–5). We reproduce both the signal and the
  * cost structure: the dictionary is built from the generator vocabularies
  * (so it "knows real-world entities", as YAGO does) and is held in a DuckDB
  * database file queried token-by-token over JDBC from each Spark partition.
  */
object SyntheticKB {

  /** token (lower-case, single word) → semantic class. */
  def entries: Seq[(String, String)] = {
    import repro.lake.Vocab._
    def words(xs: Seq[String], cls: String): Seq[(String, String)] =
      xs.flatMap(_.split("\\s+")).map(w => (w.toLowerCase(Locale.ROOT), cls))
    (words(cities, "City") ++
      words(counties, "Region") ++
      words(firstNames, "GivenName") ++
      words(lastNames, "FamilyName") ++
      words(streetNames, "StreetName") ++
      words(streetSuffixes, "StreetType") ++
      words(practiceStyles, "MedicalFacility") ++
      words(companyCores ++ companyKinds ++ companySuffixes, "Organization") ++
      words(sectors, "Sector") ++
      words(schoolKinds, "School") ++
      words(crimeCategories, "Offence") ++
      words(operators, "TransportOperator") ++
      Seq("hospital" -> "MedicalFacility", "infirmary" -> "MedicalFacility",
          "library" -> "CivicBuilding", "route" -> "TransportRoute",
          "gardens" -> "Housing", "court" -> "Housing"))
      .distinct
      // A token may belong to several classes (street names reused as school
      // names, etc.) — keep the first, as TUS takes the top YAGO type.
      .groupBy(_._1).map { case (t, cs) => (t, cs.head._2) }.toSeq.sortBy(_._1)
  }

  /** Materialise the KB into a DuckDB database file; returns the path. */
  def createDb(path: String): String = {
    Class.forName("org.duckdb.DuckDBDriver")
    val f = new java.io.File(path)
    if (f.exists()) f.delete()
    val conn = DriverManager.getConnection(s"jdbc:duckdb:$path")
    try {
      conn.createStatement.execute("CREATE TABLE kb (token VARCHAR PRIMARY KEY, cls VARCHAR)")
      val ps = conn.prepareStatement("INSERT INTO kb VALUES (?, ?)")
      entries.foreach { case (t, c) => ps.setString(1, t); ps.setString(2, c); ps.addBatch() }
      ps.executeBatch(); ps.close()
    } finally conn.close()
    path
  }

  /** Map a DataFrame of distinct `token` rows to `token, cls` rows via
    * per-token DuckDB lookups (the YAGO-lookup analogue; deliberately not a
    * broadcast join — the out-of-process round trips are the modelled cost).
    */
  def mapTokens(tokens: DataFrame, dbPath: String): DataFrame = {
    val spark = tokens.sparkSession
    import spark.implicits._
    tokens.select("token").distinct().as[String].mapPartitions { it =>
      Class.forName("org.duckdb.DuckDBDriver")
      val props = new Properties()
      props.setProperty("duckdb.read_only", "true")
      val conn = DriverManager.getConnection(s"jdbc:duckdb:$dbPath", props)
      val ps = conn.prepareStatement("SELECT cls FROM kb WHERE token = ?")
      val out = it.flatMap { t =>
        ps.setString(1, t)
        val rs = ps.executeQuery()
        val res = if (rs.next()) Some((t, rs.getString(1))) else None
        rs.close()
        res
      }.toVector
      ps.close(); conn.close()
      out.iterator
    }.toDF("token", "cls")
  }
}
