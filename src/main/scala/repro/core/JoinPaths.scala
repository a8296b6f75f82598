package repro.core

import scala.collection.mutable
import org.apache.spark.sql.SparkSession

/** §IV — extending relatedness through SA-join paths.
  *
  * Two tables are SA-joinable when the 𝕍 index gives evidence that the tsets
  * of two of their attributes overlap and at least one of those attributes is
  * its table's (predicted) subject attribute. The overlap coefficient is
  * estimated from the signature Jaccard Ĵ and the tset sizes via the paper's
  * inclusion–exclusion bound  ov ≥ Ĵ·(|A|+|B|) / ((1+Ĵ)·min(|A|,|B|)).
  *
  * Algorithm 3 then enumerates, per top-k table S_i, all acyclic paths whose
  * non-start nodes are outside the top-k and have index evidence of
  * relatedness to the target; [[JoinPaths.reachable]] computes the tables
  * those paths reach.
  */
object JoinPaths {

  /** Undirected SA-join graph over the lake as an adjacency map. */
  final case class SaJoinGraph(neighbours: Map[String, Set[String]]) {
    def adjacent(t: String): Set[String] = neighbours.getOrElse(t, Set.empty)
    def edgeCount: Int = neighbours.valuesIterator.map(_.size).sum / 2
  }

  /** Build the SA-join graph from the lake's 𝕍 index (one-off per lake),
    * in plain Scala over the driver-resident [[ServingIndex]].
    */
  def buildGraph(spark: SparkSession, idx: LakeIndexes, cfg: D3LConfig = D3LConfig()): SaJoinGraph = {
    val lake = idx.serving
    val v = Evidence.all.indexOf(Evidence.V)
    val adj = Array.fill(lake.tableIds.size)(mutable.BitSet.empty)
    val seen = new Array[Int](lake.attrs.size) // attr id → subject attr id + 1 once met
    // Collisions where one side is a subject attribute; the other may be any
    // attribute ("at least one of a or a' is a subject attribute").
    lake.attrs.filter(_.subject).foreach { a =>
      lake.lsh.candidates(a.buckets(v), seen, a.id + 1) { bi =>
        val b = lake.attrs(bi)
        if (b.table != a.table) {
          val jac = lake.lsh.similarity(v, a.sigs(v), b.sigs(v)) // Ĵ, a MinHash estimate
          val ov = jac * (a.tsetSize + b.tsetSize) / ((1.0 + jac) * math.min(a.tsetSize, b.tsetSize))
          if (ov >= cfg.minJoinOverlap && jac > 0.0) {
            adj(a.table) += b.table
            adj(b.table) += a.table
          }
        }
      }
    }
    SaJoinGraph(adj.indices.filter(adj(_).nonEmpty)
      .map(t => lake.tableIds(t) -> adj(t).iterator.map(lake.tableIds).toSet).toMap)
  }

  /** Algorithm 3, called for one start table S_i ∈ S^k, reduced to the
    * tables its join paths reach (the tables whose attributes the join
    * result can contribute), excluding `start`. A join path is a simple path
    * of at most `maxLen` nodes whose non-start nodes are outside `topK` and
    * pass `relatedToTarget` (≥1 index relates them to T).
    *
    * Computed by guarded BFS rather than by materialising Algorithm 3's path
    * set: every BFS tree path is a valid simple path under the same node
    * constraints, so the reachable set is identical, but the cost is
    * O(V+E) — enumerating all simple paths in the dense cliques that
    * same-base derived tables form is combinatorial, and no caller needs the
    * concrete join plans. Without a relatedness guard (`_ => true`) this is
    * Aurum+J's PK/FK traversal.
    */
  def reachable(graph: SaJoinGraph, topK: Set[String], relatedToTarget: String => Boolean,
                start: String, maxLen: Int): Set[String] = {
    val visited = scala.collection.mutable.Set(start)
    var frontier = List(start)
    var depth = 1
    while (frontier.nonEmpty && depth < maxLen) {
      frontier = frontier.flatMap { node =>
        graph.adjacent(node).toSeq.filter { n =>
          !visited.contains(n) && !topK.contains(n) && relatedToTarget(n) &&
            { visited += n; true }
        }
      }
      depth += 1
    }
    visited.toSet - start
  }
}
