package repro.baselines

import java.sql.DriverManager
import java.util.{Locale, Properties}

/** Synthetic knowledge base — the offline stand-in for YAGO in the TUS
  * baseline (DESIGN.md §4.2).
  *
  * YAGO's role in TUS is an *external* store mapping entity tokens to
  * semantic classes, consulted for every token of every value at indexing
  * and at query time — the paper identifies exactly this as TUS's
  * performance leak (Experiments 4–5). We reproduce both the signal and the
  * cost structure: the dictionary is built from the generator vocabularies
  * (so it "knows real-world entities", as YAGO does) and is held in a DuckDB
  * database file queried token-by-token over JDBC, from each Spark partition
  * at indexing and from the driver at query time.
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

  /** The class of each of `tokens` the KB knows, by per-token DuckDB
    * lookups over one read-only connection, each distinct token once (the
    * YAGO-lookup analogue; deliberately not a join — the out-of-process round
    * trips are the modelled cost). Spark partitions and the driver call it
    * alike.
    */
  def mapTokens(tokens: IterableOnce[String], dbPath: String): Map[String, String] = {
    Class.forName("org.duckdb.DuckDBDriver")
    val props = new Properties()
    props.setProperty("duckdb.read_only", "true")
    val conn = DriverManager.getConnection(s"jdbc:duckdb:$dbPath", props)
    try {
      val ps = conn.prepareStatement("SELECT cls FROM kb WHERE token = ?")
      tokens.iterator.distinct.flatMap { t =>
        ps.setString(1, t)
        val rs = ps.executeQuery()
        try Option.when(rs.next())(t -> rs.getString(1)) finally rs.close()
      }.toMap
    } finally conn.close()
  }
}
