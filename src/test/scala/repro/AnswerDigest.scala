package repro

import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import repro.baselines.{Aurum, Tus}
import repro.core.D3L
import repro.eval.{Experiments, Harness}
import repro.lake.{Generators, Lake}
import repro.perfbench.Workloads

/** Prints one SHA-256 digest per answer of D³L, TUS and Aurum, and per Table II
  * frame, on perfbench's `lookup` and `batch` lakes (seeds 1 and 2) and on
  * `Generators.scaling(300, 13)`. Two builds that print the same lines give the
  * same answers, indexes and Table II rows, bit for bit (doubles are printed
  * exactly). Each line reads `<lake> <item> <rows> <digest>`.
  *
  * {{{
  * sbt "Test/runMain repro.AnswerDigest"
  * }}}
  */
object AnswerDigest {

  private def lakes: Seq[(String, () => Lake, Int, Long)] = Seq(1L, 2L).flatMap { seed =>
    Seq(
      (s"lookup-$seed", () => Generators.smallerReal(nClusters = Workloads.LookupClusters,
        tablesPerCluster = Workloads.LookupTablesPerCluster, seed = seed), Workloads.LookupTargets, seed),
      (s"batch-$seed", () => Generators.synthetic(nBases = Workloads.BatchBases,
        derivedPerBase = Workloads.BatchDerivedPerBase, seed = seed), Workloads.BatchTargets, seed))
  } :+ (("scaling-300", () => Generators.scaling(300, 13), 20, 13L))

  def main(args: Array[String]): Unit = {
    val spark = SparkSpec.shared
    spark.sparkContext.setLogLevel("WARN")
    for ((name, gen, nTargets, seed) <- lakes) {
      val f = Harness.build(spark, gen(), nTargets, seed)
      def digest(item: String, rows: Iterable[Any]): Unit = {
        val md = MessageDigest.getInstance("SHA-256")
        rows.foreach(r => md.update(s"$r\n".getBytes("UTF-8")))
        println(f"$name%-12s $item%-26s ${rows.size}%8d ${md.digest().map("%02x".format(_)).mkString.take(16)}")
      }
      def frame(item: String, df: DataFrame): Unit =
        digest(item, df.schema.json +: df.collect().toSeq.map(_.toString))

      val batch = D3L.queryAll(spark, f.d3l, f.targets, f.cfg)
      digest("d3l.batch.ranked", batch.ranked)
      digest("d3l.batch.aligned", batch.aligned)
      val singles = f.targets.map(t => D3L.queryTable(spark, f.d3l, f.lake.table(t), f.cfg, excludeId = Some(t)))
      digest("d3l.single.ranked", singles.flatMap(_.ranked))
      digest("d3l.single.aligned", singles.flatMap(_.aligned))
      val serving = f.d3l.serving
      digest("d3l.buckets", serving.attrs.map(a => (a.tableId, a.colIdx, a.buckets.map(_.mkString(",")).mkString(";"))))
      val nBuckets = serving.attrs.flatMap(_.buckets.flatMap(_.toSeq)).maxOption.fold(0)(_ + 1)
      digest("d3l.postings", (0 until nBuckets).map(b => serving.lsh.probe(b).mkString(",")))
      digest("d3l.sa_graph", f.saGraph.neighbours.toSeq.sortBy(_._1).map { case (t, ns) => (t, ns.toSeq.sorted) })

      val tus = Tus.queryAll(f.tus, f.targets)
      digest("tus.batch.ranked", tus.ranked)
      digest("tus.batch.aligned", tus.aligned)
      val tusSingles = f.targets.map(t => Tus.queryTable(f.tus, f.lake.table(t), excludeId = Some(t)))
      digest("tus.single.ranked", tusSingles.flatMap(_.ranked))
      digest("tus.single.aligned", tusSingles.flatMap(_.aligned))

      digest("aurum.edges", f.aurum.edges)
      digest("aurum.pkfk", f.aurum.pkfkTableEdges.toSeq.sortBy(_._1).map { case (t, ns) => (t, ns.toSeq.sorted) })
      val aurum = Aurum.queryAll(f.aurum, f.targets)
      digest("aurum.batch.ranked", aurum.ranked)
      digest("aurum.batch.aligned", aurum.aligned)

      Seq("catalog" -> f.d3l.catalog, "signatures" -> f.d3l.signatures, "buckets" -> f.d3l.buckets,
        "numeric" -> f.d3l.numericProfiles, "subjects" -> f.d3l.subjects, "embeddings" -> f.d3l.tokenEmbeddings)
        .foreach { case (n, df) => frame(s"table2.d3l.$n", df) }
      Experiments.tusFrames(spark, f.tus).toSeq.sortBy(_._1).foreach { case (n, df) => frame(s"table2.tus.$n", df) }
      Experiments.aurumFrames(spark, f.aurum).toSeq.sortBy(_._1).foreach { case (n, df) => frame(s"table2.aurum.$n", df) }
      f.lakeLong.unpersist()
    }
    spark.stop()
  }
}
