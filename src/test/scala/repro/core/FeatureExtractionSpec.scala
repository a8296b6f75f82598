package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.lake.{Generators, LakeColumn, LakeDf, LakeTable}
import repro.text.{Embeddings, Tokenizer}

class FeatureExtractionSpec extends SparkSpec {

  /** Tiny hand-built lake exercising every evidence type. */
  private def tinyTables: Seq[LakeTable] = Seq(
    LakeTable("t1", "c1", Vector(
      LakeColumn("Practice", Vector("Dr E Cullen", "Blackfriars", "Radclife Care"), "c1.practice", isSubject = true),
      LakeColumn("Address", Vector("18 Portland Street, M1 3BE", "41 Oxford Road, M13 9PL", "9 Mirabel Street, M3 1NN"), "c1.addr", isSubject = false),
      LakeColumn("Patients", Vector("1202", "3572", "980"), "c1.patients", isSubject = false),
    )),
    LakeTable("t2", "c1", Vector(
      LakeColumn("Practice Name", Vector("Blackfriars", "The London Clinic", "Radclife Care"), "c1.practice", isSubject = true),
      LakeColumn("Payment", Vector("73648", "15520", "22100"), "c1.payment", isSubject = false),
    )),
  )

  private lazy val idx = FeatureExtraction.extract(spark, LakeDf.toLong(spark, tinyTables))

  private def assertSameModel(got: Map[String, Array[Float]], want: Map[String, Array[Float]]): Unit = {
    assert(got.keySet == want.keySet)
    want.foreach { case (tok, v) => assert(got(tok).toSeq == v.toSeq, s"vector of $tok") }
  }

  /** Embedding training as grouped by (attr, row): every word of every
    * non-empty value of a textual attribute becomes an (attr, row, token)
    * row, regrouped per value before pairing its first 12 words.
    */
  private def trainPerAttrRow(tables: Seq[LakeTable], idx: LakeIndexes): Map[String, Array[Float]] = {
    import spark.implicits._
    val textual = idx.catalog.filter(!col("is_numeric")).select("attr").as[String].collect().toSet
    val toks = for {
      t <- tables
      (c, ci) <- t.columns.zipWithIndex
      attr = FeatureExtraction.attrId(t.id, ci) if textual(attr)
      (v, row) <- c.values.zipWithIndex if v != null && v.exists(_ != ' ')
      w <- Tokenizer.partWords(v).flatten
    } yield (attr, row.toLong, w)
    toks.toDS()
      .groupByKey(t => (t._1, t._2))
      .flatMapGroups { (_, it) =>
        val ts = it.map(_._3).take(12).toSeq
        ts.flatMap(t => ts.map(u => (t, u)))
      }
      .groupByKey(_._1)
      .mapGroups { (token, it) =>
        val acc = new Array[Float](Embeddings.Dim)
        it.foreach { case (_, other) => Embeddings.add(acc, Embeddings.baseVector(other)) }
        (token, acc)
      }
      .collect().toMap
  }

  for ((name, lake) <- Seq(
      "Synthetic" -> Generators.synthetic(nBases = 4, derivedPerBase = 5, baseRows = 60, seed = 61),
      "Smaller Real" -> Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 80, seed = 62)))
    test(s"per-value training equals training grouped by (attr, row) on a $name lake") {
      val lakeIdx = FeatureExtraction.extract(spark, LakeDf.toLong(spark, lake.tables))
      assertSameModel(lakeIdx.embeddings, trainPerAttrRow(lake.tables, lakeIdx))
    }

  test("a value contributes only the co-occurrences of its first 12 words") {
    val words = (1 to 15).map(i => s"w$i")
    val got = FeatureExtraction.trainEmbeddings(spark.sparkContext.parallelize(Seq(words, Seq("w1"))))
    val first = words.take(12)
    val context = first.map(Embeddings.baseVector).foldLeft(new Array[Float](Embeddings.Dim))(Embeddings.add)
    val want = first.map(w => w -> context.clone()).toMap
    Embeddings.add(want("w1"), Embeddings.baseVector("w1"))
    assertSameModel(got, want)
  }

  test("catalog has one row per attribute") {
    assert(idx.catalog.count() == 5)
  }

  test("catalog marks numeric attributes") {
    val numeric = idx.catalog.filter(col("is_numeric")).select("attr")
      .collect().map(_.getString(0)).toSet
    assert(numeric == Set("t1#2", "t2#1"))
  }

  test("oracle: catalog value counts match DuckDB") {
    val long = LakeDf.toLong(spark, tinyTables)
    val df = idx.catalog.select(col("attr"), col("n_values"))
    Oracle.assertEquivalent(
      df,
      """SELECT table_id || '#' || col_idx AS attr,
        |       count(*) FILTER (WHERE value IS NOT NULL AND trim(value) <> '') AS n_values
        |FROM lake GROUP BY table_id, col_idx""".stripMargin,
      "lake" -> long)
  }

  test("catalog null fraction is zero for fully populated columns") {
    val nf = idx.catalog.select("attr", "null_frac").collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(nf.values.forall(_ == 0.0))
  }

  test("signatures exist for N on every attribute") {
    val n = idx.signatures.filter(col("evidence") === "N").count()
    assert(n == 5)
  }

  test("signatures for V/E exist only for textual attributes") {
    val v = idx.signatures.filter(col("evidence") === "V").select("attr")
      .collect().map(_.getString(0)).toSet
    assert(v == Set("t1#0", "t1#1", "t2#0"))
    val e = idx.signatures.filter(col("evidence") === "E").select("attr")
      .collect().map(_.getString(0)).toSet
    assert(e == Set("t1#0", "t1#1", "t2#0"))
  }

  test("signatures for F exist for every attribute (numerics included)") {
    val f = idx.signatures.filter(col("evidence") === "F").count()
    assert(f == 5)
  }

  test("numeric profiles are sorted samples of the numeric extents") {
    val rows = idx.numericProfiles.collect()
    assert(rows.map(_.getAs[String]("attr")).toSet == Set("t1#2", "t2#1"))
    rows.foreach { r =>
      val s = r.getAs[scala.collection.Seq[Double]]("sample")
      assert(s.toSeq == s.toSeq.sorted)
      assert(s.nonEmpty)
    }
  }

  test("t1 numeric profile contains the parsed values") {
    val s = idx.numericProfiles.filter(col("attr") === "t1#2")
      .select("sample").collect()(0).getAs[scala.collection.Seq[Double]](0)
    assert(s.toSeq == Seq(980.0, 1202.0, 3572.0))
  }

  test("buckets reference only attributes with signatures") {
    val bAttrs = idx.buckets.select("attr").distinct().collect().map(_.getString(0)).toSet
    val sAttrs = idx.signatures.select("attr").distinct().collect().map(_.getString(0)).toSet
    assert(bAttrs.subsetOf(sAttrs))
  }

  test("minhash evidences have 60 buckets per attribute, simhash 48") {
    val counts = idx.buckets.groupBy("evidence", "attr").count()
      .collect().map(r => (r.getString(0), r.getLong(2))).toSet
    counts.foreach {
      case ("E", n) => assert(n == 48, s"E had $n")
      case (_, n)   => assert(n == 60, s"had $n")
    }
  }

  test("similar attribute names produce similar N signatures") {
    import repro.lsh.MinHash
    val sigs = idx.signatures.filter(col("evidence") === "N")
      .select("attr", "sig").collect()
      .map(r => r.getString(0) -> r.getAs[scala.collection.Seq[Long]](1).toArray).toMap
    val sim = MinHash.estimateJaccard(sigs("t1#0"), sigs("t2#0")) // Practice vs Practice Name
    val dis = MinHash.estimateJaccard(sigs("t1#0"), sigs("t1#1")) // Practice vs Address
    assert(sim > dis)
    assert(sim > 0.3, s"sim=$sim")
  }

  test("overlapping extents produce similar V signatures") {
    import repro.lsh.MinHash
    val sigs = idx.signatures.filter(col("evidence") === "V")
      .select("attr", "sig").collect()
      .map(r => r.getString(0) -> r.getAs[scala.collection.Seq[Long]](1).toArray).toMap
    // t1#0 and t2#0 share "Blackfriars" and "Radclife Care".
    val sim = MinHash.estimateJaccard(sigs("t1#0"), sigs("t2#0"))
    val dis = MinHash.estimateJaccard(sigs("t1#0"), sigs("t1#1"))
    assert(sim > dis, s"sim=$sim dis=$dis")
  }

  test("tset excludes per-part frequent words but keeps rare ones") {
    // In t1's Address column, 'street' appears twice (frequent within parts
    // containing it) while 'portland' is unique — the tset keeps 'portland'.
    // Reconstruct via public API: the V signature must differ from a
    // signature over ALL tokens (frequent ones dropped).
    import repro.lsh.MinHash
    import repro.text.Tokenizer
    val allTokens = tinyTables.head.columns(1).values.flatMap(Tokenizer.tokens)
    val vSig = idx.signatures.filter(col("attr") === "t1#1" && col("evidence") === "V")
      .select("sig").collect()(0).getAs[scala.collection.Seq[Long]](0).toArray
    val allSig = MinHash.signature(allTokens)
    assert(MinHash.estimateJaccard(vSig, allSig) < 1.0)
  }

  test("token embeddings exist for corpus tokens") {
    val toks = idx.tokenEmbeddings.select("token").collect().map(_.getString(0)).toSet
    assert(toks.contains("blackfriars"))
    assert(toks.contains("portland"))
  }

  test("embedding vectors have the configured dimension") {
    val v = idx.tokenEmbeddings.limit(1).select("vec").collect()(0).getAs[scala.collection.Seq[Float]](0)
    assert(v.size == repro.text.Embeddings.Dim)
  }

  test("subjects are predicted for both tables") {
    val subj = idx.subjects.collect().map(r => r.getAs[String]("table_id") -> r.getAs[Int]("col_idx")).toMap
    assert(subj == Map("t1" -> 0, "t2" -> 0))
  }

  test("reuseEmbeddings skips retraining and uses the provided model") {
    val single = LakeDf.toLong(spark, tinyTables.take(1))
    val idx2 = FeatureExtraction.extract(spark, single, reuseEmbeddings = Some(idx.tokenEmbeddings))
    assertSameModel(idx2.embeddings, idx.embeddings)
    assert(idx2.signatures.filter(col("evidence") === "E").count() > 0)
  }

  test("empty-valued columns stay out of the value indexes") {
    val t = Seq(LakeTable("e1", "c", Vector(
      LakeColumn("Empty", Vector(null, null, ""), "c.e", isSubject = false),
      LakeColumn("Full", Vector("a b", "c d", "e f"), "c.f", isSubject = true))))
    val i2 = FeatureExtraction.extract(spark, LakeDf.toLong(spark, t))
    val vAttrs = i2.buckets.filter(col("evidence") === "V").select("attr")
      .distinct().collect().map(_.getString(0)).toSet
    assert(!vAttrs.contains("e1#0"))
  }

  test("driver-side kernel reproduces a lake table's frames") {
    val vecs = idx.tokenEmbeddings.collect().map(r =>
      r.getString(0) -> r.getAs[scala.collection.Seq[Float]](1).toArray).toMap
    val f = FeatureExtraction.extractTable(tinyTables.head, D3LConfig(), vecs.get)
    val sigs = idx.signatures.filter(col("table_id") === "t1").collect()
      .map(r => (r.getAs[String]("attr"), r.getAs[String]("evidence")) ->
        r.getAs[scala.collection.Seq[Long]]("sig").toSeq).toMap
    assert(f.signatures.map(s => (s.attr, s.evidence) -> s.sig.toSeq).toMap == sigs)
    val tsets = idx.catalog.filter(col("table_id") === "t1").collect()
      .map(r => r.getAs[String]("attr") -> r.getAs[Long]("tset_size")).toMap
    assert(f.profiles.map(p => p.attr -> p.tsetSize).toMap == tsets)
    assert(f.samples.map(s => s.attr -> s.sample.toSeq) == Seq("t1#2" -> Seq(980.0, 1202.0, 3572.0)))
    assert(f.subject.contains(0))
  }
}
