package repro.perfbench

import repro.core.{D3LConfig, JoinPaths, LakeIndexes}
import repro.lake.Lake

/** Output checks. Each returns the problems it found; an operation with
  * any problem counts as failed.
  */
object Checks {

  /** One ranked candidate as collected from a ranking frame. */
  final case class Hit(sTable: String, score: Double, rank: Int)

  /** Ranks 1..n contiguous, no self-match, no excluded table, no candidate
    * twice, every score finite and non-negative, at most `limit` rows.
    */
  def ranking(target: String, hits: Seq[Hit], exclude: Option[String],
              limit: Option[Int]): Seq[String] = {
    val p = Seq.newBuilder[String]
    val ranks = hits.map(_.rank).sorted
    if (ranks != (1 to hits.size)) p += s"$target: ranks ${ranks.mkString(",")} are not 1..${hits.size}"
    if (hits.exists(_.sTable == target)) p += s"$target: ranking contains the target itself"
    exclude.foreach(ex => if (hits.exists(_.sTable == ex)) p += s"$target: ranking contains excluded $ex")
    if (hits.map(_.sTable).distinct.size != hits.size) p += s"$target: a candidate is ranked twice"
    hits.filter(h => h.score.isNaN || h.score.isInfinite || h.score < 0)
      .foreach(h => p += s"$target: bad score ${h.score} for ${h.sTable}")
    limit.foreach(k => if (hits.size > k) p += s"$target: ${hits.size} rows returned for top-$k")
    p.result()
  }

  /** Cross-path oracle: the single-target top-k must equal the batched
    * top-k for the same target, except that candidates tied with the k-th
    * score may be swapped for one another.
    */
  def sameTopK(target: String, single: Seq[Hit], batch: Seq[Hit], k: Int): Seq[String] = {
    val eps = 1e-9
    def top(hs: Seq[Hit]) = hs.filter(_.rank <= k).sortBy(_.rank)
    val (a, b) = (top(single), top(batch))
    if (a.size != b.size) return Seq(s"$target: top-$k has ${a.size} rows, batched path ${b.size}")
    if (a.isEmpty) return Nil
    val scoresDiffer = a.zip(b).exists { case (x, y) => math.abs(x.score - y.score) > eps }
    val kth = b.last.score
    val swapped = (a.map(_.sTable).toSet diff b.map(_.sTable).toSet) ++
      (b.map(_.sTable).toSet diff a.map(_.sTable).toSet)
    val scoreOf = (a ++ b).map(h => h.sTable -> h.score).toMap
    val untied = swapped.filter(s => math.abs(scoreOf(s) - kth) > eps)
    Seq(
      if (scoresDiffer) Some(s"$target: top-$k scores differ from the batched path") else None,
      if (untied.nonEmpty) Some(s"$target: top-$k differs from the batched path on ${untied.mkString(",")}") else None,
    ).flatten
  }

  /** Alignments reference a target, another table and real columns, and
    * pass the LSH threshold.
    */
  def alignments(lake: Lake, targets: Set[String], rows: Seq[(String, Int, String, Int, Double)],
                 cfg: D3LConfig): Seq[String] = {
    val arity = lake.tables.map(t => t.id -> t.arity).toMap
    rows.flatMap { case (t, tc, s, sc, d) =>
      val bad =
        !targets.contains(t) || t == s || !arity.contains(s) ||
          tc < 0 || tc >= arity.getOrElse(t, 0) || sc < 0 || sc >= arity.getOrElse(s, 0) ||
          d.isNaN || d < 0 || d > 1.0 - cfg.tau + 1e-12
      if (bad) Some(s"alignment ($t#$tc, $s#$sc, $d) is invalid") else None
    }.take(5)
  }

  /** Join-path expansion stays inside the guard set, outside the top-k and
    * never returns its own start.
    */
  def reachable(target: String, start: String, got: Set[String], topK: Set[String],
                guard: Set[String]): Seq[String] =
    if (got.contains(start) || got.exists(topK.contains) || !got.subsetOf(guard))
      Seq(s"$target: join paths from $start leave the guard set or re-enter the top-k")
    else Nil

  /** One catalog row and one ℕ signature per lake column; at most one
    * subject attribute per table; an undirected, loop-free SA-join graph
    * over lake tables.
    */
  def index(lake: Lake, catalogRows: Long, nameSigs: Long, subjectsPerTable: Int,
            graph: Option[JoinPaths.SaJoinGraph]): Seq[String] = {
    val cols = lake.tables.map(_.arity.toLong).sum
    val ids = lake.tables.map(_.id).toSet
    val adj = graph.fold(Map.empty[String, Set[String]])(_.neighbours)
    Seq(
      if (catalogRows != cols) Some(s"catalog has $catalogRows rows for $cols columns") else None,
      if (nameSigs != cols) Some(s"$nameSigs name signatures for $cols columns") else None,
      if (subjectsPerTable > 1) Some(s"a table has $subjectsPerTable subject attributes") else None,
      if (adj.exists { case (a, ns) => ns.contains(a) }) Some("SA-join graph has a self-loop") else None,
      if (adj.exists { case (a, ns) => ns.exists(b => !adj.getOrElse(b, Set.empty).contains(a)) })
        Some("SA-join graph is not symmetric") else None,
      if (!adj.keySet.subsetOf(ids)) Some("SA-join graph names a table outside the lake") else None,
    ).flatten
  }

  def indexFigures(idx: LakeIndexes): (Long, Long, Int) = {
    val spark = idx.catalog.sparkSession
    import spark.implicits._
    val catalogRows = idx.catalog.count()
    val nameSigs = idx.signatures.filter($"evidence" === "N").count()
    val subj = idx.subjects.groupBy("table_id").count().agg(org.apache.spark.sql.functions.max("count"))
      .as[Option[Long]].head().getOrElse(0L).toInt
    (catalogRows, nameSigs, subj)
  }
}
