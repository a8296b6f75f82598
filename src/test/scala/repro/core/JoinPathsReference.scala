package repro.core

/** Algorithm 3 as the paper states it: the concrete join paths, which
  * `JoinPaths.reachable` reduces to the set of tables they reach.
  */
object JoinPathsReference {

  /** Algorithm 3, called for one start table S_i ∈ S^k: all simple paths of
    * length ≥ 2 whose non-start nodes are outside `topK`, acyclic, and in
    * `relatedToTarget` (≥1 index relates them to T). Returns paths as node
    * lists starting at `start`.
    */
  def findJoinPaths(graph: JoinPaths.SaJoinGraph, topK: Set[String], relatedToTarget: Set[String],
                    start: String, maxLen: Int = 4): Set[List[String]] = {
    val out = scala.collection.mutable.Set.empty[List[String]]
    def dfs(node: String, path: List[String]): Unit = {
      val newPath = path :+ node
      if (newPath.size > 1) out += newPath
      if (newPath.size >= maxLen) return
      graph.adjacent(node).toSeq.sorted.foreach { n =>
        if (!topK.contains(n) && !newPath.contains(n) && relatedToTarget.contains(n))
          dfs(n, newPath)
      }
    }
    dfs(start, Nil)
    out.toSet
  }
}
