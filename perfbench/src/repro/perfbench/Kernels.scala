package repro.perfbench

import org.apache.spark.sql.functions._
import repro.core.{Evidence, LakeIndexes}
import repro.lake.Lake
import repro.lsh.{Banding, MinHash, RandomProjection}
import repro.stats.KolmogorovSmirnov
import repro.text.{FormatRegex, Tokenizer}

/** Driver-side timings of the public text/lsh/stats kernels on the
  * workload's own inputs (traced run only), each printed beside the number
  * of calls one index build or one batched query over the workload's
  * targets implies, so kernel CPU can be set against Spark executor CPU.
  */
object Kernels {

  private val MinNs = 200L * 1000 * 1000
  private val MaxInputs = 4000
  // Results are folded in here so the JIT cannot drop the timed calls.
  @volatile private var sink = 0

  /** Nanoseconds per unit: `f` over all inputs, repeated for at least
    * 200 ms; `units` gives each input's weight (1 per call by default).
    */
  private def nsPer[A](inputs: IndexedSeq[A], units: A => Int = (_: A) => 1)(f: A => Any): Double = {
    if (inputs.isEmpty) return 0.0
    val perPass = inputs.iterator.map(a => units(a).toLong).sum
    var acc = 0
    inputs.foreach(a => acc += f(a).hashCode)
    val t0 = System.nanoTime()
    var passes = 0L
    while (System.nanoTime() - t0 < MinNs) {
      inputs.foreach(a => acc += f(a).hashCode)
      passes += 1
    }
    val ns = (System.nanoTime() - t0).toDouble
    sink += acc
    ns / (passes * math.max(1L, perPass))
  }

  private def record(r: Run, name: String, ns: Double, implied: Double, per: String): Unit = {
    r.tracer.count(name, ns)
    r.kernels += Map("name" -> name, "ns" -> ns, "implied" -> implied, "per" -> per)
  }

  def run(r: Run, lake: Lake, idx: LakeIndexes, targets: Seq[String]): Unit =
    if (r.tracer.enabled) r.tracer.request("kernels")(r.span("eval.kernels") {
      import r.spark.implicits._
      val rnd = new scala.util.Random(r.args.seed)
      val columns = lake.tables.flatMap(_.columns)
      val values = columns.flatMap(_.values).filter(v => v != null && v.trim.nonEmpty)
      val sample = rnd.shuffle(values).take(MaxInputs).toIndexedSeq
      val names = columns.map(_.name).toIndexedSeq

      record(r, "text.part_words_ns", nsPer(sample)(Tokenizer.partWords), values.size, "index build")
      record(r, "text.format_string_ns", nsPer(sample)(FormatRegex.formatString), values.size, "index build")
      record(r, "text.qgrams_ns", nsPer(names)(n => Tokenizer.qgrams(n)), names.size, "index build")

      // Token sets as the signatures see them: per column, the distinct
      // words of its values, their distinct formats and its name q-grams.
      val tokenSets = columns.flatMap { c =>
        val vs = c.values.filter(v => v != null && v.trim.nonEmpty)
        Seq(vs.flatMap(Tokenizer.tokens).distinct, vs.map(FormatRegex.formatString).distinct,
          Tokenizer.qgrams(c.name).toSeq)
      }.filter(_.nonEmpty).toIndexedSeq
      record(r, "lsh.minhash_ns_per_token", nsPer(tokenSets, (s: Seq[String]) => s.size)(MinHash.signature),
        tokenSets.map(_.size).sum, "index build")

      val sigs = idx.signatures.select("evidence", "sig").as[(String, Array[Long])].collect().toIndexedSeq
      val nSigs = sigs.size
      record(r, "lsh.banding_ns_per_sig", nsPer(sigs.take(MaxInputs)) { case (ev, s) =>
        Banding.buckets(s, if (ev == Evidence.E) Banding.simhashLevels else Banding.minhashLevels)
      }, nSigs, "index build")

      val vecs = idx.tokenEmbeddings.select("vec").as[Array[Float]].limit(MaxInputs).collect().toIndexedSeq
      record(r, "lsh.simhash_ns_per_vec", nsPer(vecs)(RandomProjection.signature),
        sigs.count(_._1 == Evidence.E), "index build")

      // Candidate attribute pairs of one batched query over the targets: the
      // LSH similarity join of the targets' buckets with the lake's.
      val tb = idx.buckets.filter(col("table_id").isin(targets: _*))
        .select($"evidence", $"band", $"bucket", $"attr" as "t_attr", $"table_id" as "t_table")
      val sb = idx.buckets.select($"evidence", $"band", $"bucket", $"attr" as "s_attr", $"table_id" as "s_table")
      val pairCounts = tb.join(sb, Seq("evidence", "band", "bucket"))
        .filter($"t_table" =!= $"s_table")
        .select("evidence", "t_attr", "s_attr").distinct()
        .groupBy("evidence").count().as[(String, Long)].collect().toMap
      def pairs(ev: String) = {
        val xs = sigs.filter(_._1 == ev).map(_._2)
        if (xs.isEmpty) IndexedSeq.empty
        else IndexedSeq.fill(MaxInputs)((xs(rnd.nextInt(xs.size)), xs(rnd.nextInt(xs.size))))
      }
      record(r, "lsh.jaccard_ns_per_pair", nsPer(pairs(Evidence.V)) { case (a, b) => MinHash.estimateJaccard(a, b) },
        pairCounts.filter(_._1 != Evidence.E).values.sum.toDouble, "batched query")
      record(r, "lsh.cosine_ns_per_pair", nsPer(pairs(Evidence.E)) { case (a, b) => RandomProjection.estimateCosine(a, b) },
        pairCounts.getOrElse(Evidence.E, 0L).toDouble, "batched query")

      val samples = idx.numericProfiles.select("table_id", "sample").as[(String, Array[Double])].collect()
      val numPerTable = samples.groupBy(_._1).map { case (t, xs) => t -> xs.length }
      val ksPairs = if (samples.isEmpty) IndexedSeq.empty
        else IndexedSeq.fill(MaxInputs / 4)((samples(rnd.nextInt(samples.length))._2,
          samples(rnd.nextInt(samples.length))._2))
      // Upper bound: Algorithm 2 keeps only guarded numeric pairs.
      val ksImplied = targets.map(t => numPerTable.getOrElse(t, 0).toDouble).sum *
        numPerTable.values.sum
      record(r, "stats.ks_ns_per_pair", nsPer(ksPairs) { case (a, b) => KolmogorovSmirnov.statisticSorted(a, b) },
        ksImplied, "batched query (upper bound)")
    })
}
