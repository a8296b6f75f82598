package repro.core

import repro.SparkSpec
import repro.lake.{Generators, Lake, LakeDf}

/** The served query pipeline (`D3L.queryAll`, plain Scala on the driver)
  * returns what the Spark-SQL reference pipeline returns over the same
  * `LakeIndexes` frames: same ranking (scores within 1e-9, order swaps only
  * between tied scores), same alignments and same guard set.
  */
class D3LEquivalenceSpec extends SparkSpec {

  private val Eps = 1e-9
  private val skewed = Map("N" -> 2.5, "V" -> 0.2, "F" -> 0.8, "E" -> 0.5, "D" -> 1.0)

  private lazy val lakes: Map[String, (Lake, LakeIndexes)] = Seq(
    "Synthetic" -> Generators.synthetic(nBases = 4, derivedPerBase = 5, baseRows = 60, seed = 61),
    "Smaller Real" -> Generators.smallerReal(nClusters = 3, tablesPerCluster = 5, poolSize = 80, seed = 62),
  ).map { case (name, lake) => name -> (lake, D3L.index(spark, LakeDf.toLong(spark, lake.tables))) }.toMap

  private type RankRow = (String, String, Seq[Double], Double, Int)

  private def ranking(res: D3L.QueryResult): Map[String, Seq[RankRow]] =
    res.ranking.select("t_table", "s_table", "dN", "dV", "dF", "dE", "dD", "score", "rank").collect()
      .map(r => (r.getString(0), r.getString(1), (2 to 6).map(r.getDouble), r.getDouble(7), r.getInt(8)))
      .toSeq.groupBy(_._1).map { case (t, rs) => t -> rs.sortBy(_._5) }

  private def alignments(res: D3L.QueryResult): Map[(String, Int, String, Int), Double] =
    res.alignments.select("t_table", "t_col", "s_table", "s_col", "best_dist").collect()
      .map(r => (r.getString(0), r.getInt(1), r.getString(2), r.getInt(3)) -> r.getDouble(4)).toMap

  private def pairs(res: D3L.QueryResult): Set[(String, String)] =
    res.tablePairs.collect().map(r => (r.getString(0), r.getString(1))).toSet

  private def assertSameRanking(target: String, got: Seq[RankRow], want: Seq[RankRow]): Unit = {
    assert(got.map(_._5) == (1 to got.size), s"$target: ranks not 1..n")
    assert(got.map(_._2).toSet == want.map(_._2).toSet, s"$target: different candidate tables")
    val wantBy = want.map(r => r._2 -> r).toMap
    got.foreach { case (_, s, d, score, rank) =>
      val (_, _, wd, wScore, wRank) = wantBy(s)
      assert(math.abs(score - wScore) <= Eps, s"$target/$s: score $score vs $wScore")
      d.zip(wd).foreach { case (a, b) => assert(math.abs(a - b) <= Eps, s"$target/$s: distances $d vs $wd") }
      // A different rank is allowed only where the reference puts a tied score.
      if (rank != wRank)
        assert(math.abs(want(rank - 1)._4 - score) <= Eps, s"$target/$s: rank $rank vs $wRank, not a tie")
    }
  }

  for (lakeName <- Seq("Synthetic", "Smaller Real"); (wName, weights) <- Seq("uniform" -> None, "skewed" -> Some(skewed)))
    test(s"served queryAll equals the Spark-SQL reference on $lakeName, $wName Eq. 3 weights") {
      val (lake, idx) = lakes(lakeName)
      val cfg = weights.fold(D3LConfig())(w => D3LConfig(evidenceWeights = w))
      val targets = lake.tables.take(6).map(_.id)
      val served = D3L.queryAll(spark, idx, targets, cfg)
      val ref = SparkSqlReference.queryAll(spark, idx, targets, cfg)

      val (got, want) = (ranking(served), ranking(ref))
      assert(got.keySet == want.keySet)
      assert(got.keySet == targets.toSet)
      targets.foreach(t => assertSameRanking(t, got(t), want(t)))

      val (ga, wa) = (alignments(served), alignments(ref))
      assert(ga.keySet == wa.keySet)
      ga.foreach { case (k, d) => assert(math.abs(d - wa(k)) <= Eps, s"alignment $k: $d vs ${wa(k)}") }

      assert(pairs(served) == pairs(ref))
    }

  for (lakeName <- Seq("Synthetic", "Smaller Real"))
    test(s"batched queryAll answers each target exactly as queryAll of that target alone, on $lakeName") {
      val (lake, idx) = lakes(lakeName)
      val targets = lake.tables.take(6).map(_.id)
      val batched = D3L.queryAll(spark, idx, targets)
      def rows(res: D3L.QueryResult) = (res.ranking.collect().toSeq, res.alignments.collect().toSeq,
        res.tablePairs.collect().toSeq)
      assert(rows(D3L.queryAll(spark, idx, targets)) == rows(batched), "two identical calls return different rows")

      val (got, ga, gp) = (ranking(batched), alignments(batched), pairs(batched))
      targets.foreach { t =>
        val alone = D3L.queryAll(spark, idx, Seq(t))
        assert(got.getOrElse(t, Nil) == ranking(alone).getOrElse(t, Nil), s"$t: ranking differs")
        assert(ga.filter(_._1._1 == t) == alignments(alone), s"$t: alignments differ")
        assert(gp.filter(_._1 == t) == pairs(alone), s"$t: guard set differs")
      }
    }
}
