package repro.eval

import scala.jdk.CollectionConverters._
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.baselines.{Aurum, Tus}
import repro.core._
import repro.lake.{Generators, Lake, LakeDf}

/** Experiment implementations for §V, shared by `jobs/` entrypoints and the
  * bench suites. Each returns plain rows; callers print/record them.
  * EXPERIMENTS.md maps every function to the paper table/figure it
  * reproduces and diffs paper vs measured numbers.
  */
object Experiments {

  final case class PrRow(system: String, k: Int, precision: Double, recall: Double)
  final case class TimeRow(system: String, x: Int, seconds: Double)
  final case class SpaceRow(system: String, repo: String, indexBytes: Long, lakeBytes: Long) {
    def overheadPct: Double = if (lakeBytes == 0) 0 else 100.0 * indexBytes / lakeBytes
  }
  final case class CovRow(system: String, k: Int, value: Double)
  final case class StatsRow(repo: String, metric: String, p25: Double, median: Double, p75: Double, max: Double)

  def fmtPr(rows: Seq[PrRow]): String =
    f"${"system"}%-10s ${"k"}%5s ${"precision"}%10s ${"recall"}%10s\n" +
      rows.map(r => f"${r.system}%-10s ${r.k}%5d ${r.precision}%10.3f ${r.recall}%10.3f").mkString("\n")

  def fmtCov(rows: Seq[CovRow], metric: String): String =
    f"${"system"}%-10s ${"k"}%5s ${metric}%10s\n" +
      rows.map(r => f"${r.system}%-10s ${r.k}%5d ${r.value}%10.3f").mkString("\n")

  /** One line per candidate: its Eq. 1 distances ([[Evidence.all]] order) and Eq. 3 score. */
  def fmtRanked(rows: Seq[D3L.Ranked]): String =
    f"${"cand"}%-5s ${Evidence.all.map(e => f"${"d" + e}%7s").mkString(" ")} ${"score"}%8s\n" +
      rows.map(r => f"${r.sTable}%-5s ${r.dist.map(d => f"$d%7.3f").mkString(" ")} ${r.score}%8.3f").mkString("\n")

  // ---- Experiment 1: individual evidence types (Fig. 3) --------------------

  /** Precision/recall at each k of D³L's `ranked` answer and of its
    * re-rankings by ℕ, 𝕍, 𝔽 and 𝔼 alone.
    */
  def individualEvidence(f: Harness.Fixture, ranked: Seq[D3L.Ranked], ks: Seq[Int]): Seq[PrRow] = {
    def rows(name: String, rs: Seq[D3L.Ranked]): Seq[PrRow] = {
      val ranks = rs.map(r => Metrics.Ranked(r.tTable, r.sTable, r.rank))
      ks.map { k =>
        val (p, r) = Metrics.precisionRecallAtK(ranks, f.lake.truth, k)
        PrRow(name, k, p, r)
      }
    }
    Evidence.indexed.flatMap(ev => rows(s"d3l-$ev", D3L.rankBySingleEvidence(ranked, ev))) ++
      rows("d3l-all", ranked)
  }

  // ---- Experiments 2/3: comparative P/R (Figs. 4/5) ------------------------

  def comparativePr(f: Harness.Fixture, ks: Seq[Int], d3lRun: Harness.SystemRun,
                    tusRun: Harness.SystemRun, aurumRun: Harness.SystemRun): Seq[PrRow] = {
    def rows(name: String, run: Harness.SystemRun): Seq[PrRow] = ks.map { k =>
      val (p, r) = Metrics.precisionRecallAtK(run.ranks, f.lake.truth, k)
      PrRow(name, k, p, r)
    }
    rows("d3l", d3lRun) ++ rows("tus", tusRun) ++ rows("aurum", aurumRun)
  }

  // ---- Experiment 4: indexing time vs lake size (Fig. 6a) ------------------

  def indexingTimes(spark: SparkSession, sizes: Seq[Int], kbPath: String): Seq[TimeRow] =
    sizes.flatMap { n =>
      val lake = Generators.scaling(n, seed = 13)
      val long = LakeDf.toLong(spark, lake.tables).cache()
      long.count()
      val (_, tD3l) = Harness.time { D3L.index(spark, long) }
      val (_, tTus) = Harness.time { Tus.index(spark, long, kbPath) }
      val (_, tAurum) = Harness.time { Aurum.index(spark, long) }
      long.unpersist()
      Seq(TimeRow("d3l", n, tD3l), TimeRow("tus", n, tTus), TimeRow("aurum", n, tAurum))
    }

  // ---- Experiments 5/6: search time vs answer size (Figs. 6b/6c) -----------

  /** Per-query latency: fresh target feature extraction + index lookup +
    * top-k of the typed ranking (k-insensitive for our banded-LSH emulation
    * of LSH Forest — recorded as such in EXPERIMENTS.md). Aurum's constant
    * in-memory EKG query time (`Aurum.queryAll` of one lake member) is
    * reported separately.
    */
  def searchTimes(spark: SparkSession, f: Harness.Fixture, ks: Seq[Int],
                  nTargets: Int): (Seq[TimeRow], Double) = {
    val targets = f.targets.take(nTargets).map(f.lake.table)
    val rows = ks.flatMap { k =>
      val (_, tD3l) = Harness.time {
        targets.foreach { t =>
          D3L.queryTable(spark, f.d3l, t, f.cfg, excludeId = Some(t.id)).ranked.filter(_.rank <= k)
        }
      }
      val (_, tTus) = Harness.time {
        targets.foreach { t =>
          Tus.queryTable(f.tus, t, excludeId = Some(t.id)).ranked.filter(_.rank <= k)
        }
      }
      Seq(TimeRow("d3l", k, tD3l / targets.size), TimeRow("tus", k, tTus / targets.size))
    }
    val (_, tAurum) = Harness.time {
      targets.foreach(t => Aurum.queryAll(f.aurum, Seq(t.id)))
    }
    (rows, tAurum / targets.size)
  }

  // ---- Experiment 7 / Table II: space overhead -----------------------------

  def spaceOverhead(spark: SparkSession, f: Harness.Fixture, baseDir: String): Seq[SpaceRow] = {
    val repo = f.lake.name
    val lakeDir = s"$baseDir/$repo/lake"
    // The lake is stored as CSV — the medium the paper's repositories use.
    f.lakeLong.write.mode("overwrite").option("header", "true").csv(lakeDir)
    val lakeBytes = Harness.dirBytes(lakeDir)

    def writeAll(sys: String, dfs: Map[String, DataFrame]): Long = {
      dfs.foreach { case (name, df) => Harness.writeParquet(df, s"$baseDir/$repo/$sys/$name") }
      Harness.dirBytes(s"$baseDir/$repo/$sys")
    }
    val d3lBytes = writeAll("d3l", Map(
      "catalog" -> f.d3l.catalog, "signatures" -> f.d3l.signatures,
      "buckets" -> f.d3l.buckets, "numeric" -> f.d3l.numericProfiles,
      "subjects" -> f.d3l.subjects, "embeddings" -> f.d3l.tokenEmbeddings))
    val tusBytes = writeAll("tus", Map(
      "catalog" -> f.tus.catalog, "signatures" -> f.tus.signatures,
      "buckets" -> f.tus.buckets)) + Harness.fileBytes(f.kbPath)
    // The edges with the schema of the Spark frame they were collected from:
    // a Parquet footer records each column's nullability.
    val edges = spark.createDataFrame(
      f.aurum.edges.map(e => Row(e.aAttr, e.aTable, e.aCol, e.bAttr, e.bTable, e.bCol, e.sim)).asJava,
      StructType.fromDDL("a_attr STRING, a_table STRING, a_col INT NOT NULL, b_attr STRING, b_table STRING, " +
        "b_col INT NOT NULL, sim DOUBLE"))
    val aurumBytes = writeAll("aurum", Map(
      "catalog" -> f.aurum.catalog, "profiles" -> f.aurum.signatures,
      "buckets" -> f.aurum.buckets, "edges" -> edges))
    Seq(
      SpaceRow("d3l", repo, d3lBytes, lakeBytes),
      SpaceRow("tus", repo, tusBytes, lakeBytes),
      SpaceRow("aurum", repo, aurumBytes, lakeBytes))
  }

  // ---- Experiments 8–11: coverage & attribute precision (Figs. 7/8) --------

  def coverage(f: Harness.Fixture, ks: Seq[Int],
               d3lRun: Harness.SystemRun, tusRun: Harness.SystemRun,
               aurumRun: Harness.SystemRun): Seq[CovRow] =
    ks.flatMap { k =>
      Seq(
        CovRow("d3l", k, Metrics.meanCoverage(d3lRun.ranks, d3lRun.aligns, f.lake, k)),
        CovRow("d3l+j", k, Metrics.meanCoverage(d3lRun.ranks, d3lRun.aligns, f.lake, k,
          Harness.d3lReachable(f, d3lRun, k))),
        CovRow("tus", k, Metrics.meanCoverage(tusRun.ranks, tusRun.aligns, f.lake, k)),
        CovRow("aurum", k, Metrics.meanCoverage(aurumRun.ranks, aurumRun.aligns, f.lake, k)),
        CovRow("aurum+j", k, Metrics.meanCoverage(aurumRun.ranks, aurumRun.aligns, f.lake, k,
          Harness.aurumReachable(f, aurumRun, k))))
    }

  def attrPrecision(f: Harness.Fixture, ks: Seq[Int],
                    d3lRun: Harness.SystemRun, tusRun: Harness.SystemRun,
                    aurumRun: Harness.SystemRun): Seq[CovRow] =
    ks.flatMap { k =>
      Seq(
        CovRow("d3l", k, Metrics.meanAttrPrecision(d3lRun.ranks, d3lRun.aligns, f.lake.truth, k)),
        CovRow("d3l+j", k, Metrics.meanAttrPrecisionJoined(d3lRun.ranks, d3lRun.aligns, f.lake.truth, k,
          Harness.d3lReachable(f, d3lRun, k))),
        CovRow("tus", k, Metrics.meanAttrPrecision(tusRun.ranks, tusRun.aligns, f.lake.truth, k)),
        CovRow("aurum", k, Metrics.meanAttrPrecision(aurumRun.ranks, aurumRun.aligns, f.lake.truth, k)),
        CovRow("aurum+j", k, Metrics.meanAttrPrecisionJoined(aurumRun.ranks, aurumRun.aligns, f.lake.truth, k,
          Harness.aurumReachable(f, aurumRun, k))))
    }

  // ---- Fig. 2: repository statistics ---------------------------------------

  def repoStats(lake: Lake): Seq[StatsRow] = {
    def quart(xs: Seq[Double]): (Double, Double, Double, Double) = {
      val s = xs.sorted
      def q(p: Double) = s(math.min(s.size - 1, (p * s.size).toInt))
      (q(0.25), q(0.5), q(0.75), s.last)
    }
    val arities = lake.tables.map(_.arity.toDouble)
    val cards = lake.tables.map(_.numRows.toDouble)
    val numPct = lake.tables.map { t =>
      100.0 * t.columns.count { c =>
        val nonNull = c.values.count(v => v != null && v.trim.nonEmpty)
        nonNull > 0 &&
          c.values.count(v => repro.text.Tokenizer.isNumericValue(v)) >= D3LConfig().numericFrac * nonNull
      } / math.max(1, t.arity)
    }
    Seq(("arity", arities), ("cardinality", cards), ("numeric_pct", numPct)).map {
      case (m, xs) =>
        val (a, b, c, d) = quart(xs)
        StatsRow(lake.name, m, a, b, c, d)
    }
  }

  // ---- Table I: example distances for the Fig. 1 tables --------------------

  /** Build the paper's Fig. 1 example tables and rank them for target T:
    * each candidate's Eq. 1 distances (Table I's five evidence types) and
    * Eq. 3 score, in rank order.
    */
  def tableIExample(spark: SparkSession): IndexedSeq[D3L.Ranked] = {
    import repro.lake.{LakeColumn, LakeTable}
    val s1 = LakeTable("S1", "ex", Vector(
      LakeColumn("Practice Name", Vector("Dr E Cullen", "Blackfriars"), "ex.p", isSubject = true),
      LakeColumn("Address", Vector("51 Botanic Av", "1a Chapel St"), "ex.a", isSubject = false),
      LakeColumn("City", Vector("Belfast", "Salford"), "ex.c", isSubject = false),
      LakeColumn("Postcode", Vector("BT7 1JL", "M3 6AF"), "ex.pc", isSubject = false),
      LakeColumn("Patients", Vector("1202", "3572"), "ex.n", isSubject = false)))
    val s2 = LakeTable("S2", "ex", Vector(
      LakeColumn("Practice", Vector("The London Clinic", "Blackfriars"), "ex.p", isSubject = true),
      LakeColumn("City", Vector("London", "Salford"), "ex.c", isSubject = false),
      LakeColumn("Postcode", Vector("W1G 6BW", "M3 6AF"), "ex.pc", isSubject = false),
      LakeColumn("Payment", Vector("73648", "15520"), "ex.m", isSubject = false)))
    val s3 = LakeTable("S3", "ex", Vector(
      LakeColumn("GP", Vector("Blackfriars", "Radclife Care"), "ex.p", isSubject = true),
      LakeColumn("Location", Vector("Salford", "-"), "ex.c", isSubject = false),
      LakeColumn("Opening hours", Vector("08:00-18:00", "07:00-20:00"), "ex.h", isSubject = false)))
    val t = LakeTable("T", "ex", Vector(
      LakeColumn("Practice", Vector("Radclife", "Bolton Medical"), "ex.p", isSubject = true),
      LakeColumn("Street", Vector("69 Church St", "21 Rupert St"), "ex.a", isSubject = false),
      LakeColumn("City", Vector("Manchester", "Bolton"), "ex.c", isSubject = false),
      LakeColumn("Postcode", Vector("M26 2SP", "BL3 6PY"), "ex.pc", isSubject = false),
      LakeColumn("Hours", Vector("07:00-20:00", "08:00-16:00"), "ex.h", isSubject = false)))
    val long = LakeDf.toLong(spark, Seq(s1, s2, s3, t))
    val idx = D3L.index(spark, long)
    D3L.queryAll(spark, idx, Seq("T")).ranked
  }
}
