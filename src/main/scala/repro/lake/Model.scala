package repro.lake

import org.apache.spark.sql.{DataFrame, SparkSession}

/** In-memory model of a generated data lake plus its ground truth.
  *
  * Tables are generated on the driver (they are individually tiny — the lake
  * is wide, not deep) and converted to a single long-format DataFrame by
  * [[LakeDf]] for all index construction. Ground-truth fields stay out of
  * that DataFrame so the discovery pipeline cannot accidentally read them;
  * they are only consulted by `repro.eval.Metrics` and by the subject-
  * attribute classifier's training-set builder.
  */
final case class LakeColumn(
    name: String,
    values: IndexedSeq[String],
    /** Ground-truth domain key: two attributes are related iff keys match. */
    domainKey: String,
    /** Ground truth: is this the table's subject attribute? */
    isSubject: Boolean,
)

final case class LakeTable(
    id: String,
    /** Ground-truth provenance: cluster (Real lakes) or base id (Synthetic). */
    cluster: String,
    columns: IndexedSeq[LakeColumn],
) {
  def arity: Int = columns.size
  def numRows: Int = if (columns.isEmpty) 0 else columns.head.values.size
}

final case class GroundTruth(
    /** tableId → set of related tableIds (symmetric, irreflexive). */
    relatedTables: Map[String, Set[String]],
    /** (tableId, colIdx) → domain key; attribute pairs related iff equal. */
    attrDomain: Map[(String, Int), String],
) {
  def related(a: String, b: String): Boolean = relatedTables.getOrElse(a, Set.empty).contains(b)
  def attrsRelated(t: String, tc: Int, s: String, sc: Int): Boolean =
    attrDomain.get((t, tc)).exists(k => attrDomain.get((s, sc)).contains(k))
  def answerSize(t: String): Int = relatedTables.getOrElse(t, Set.empty).size
}

final case class Lake(name: String, tables: IndexedSeq[LakeTable], truth: GroundTruth) {
  def table(id: String): LakeTable = tables.find(_.id == id)
    .getOrElse(throw new NoSuchElementException(s"no table $id in lake $name"))
  def avgAnswerSize: Double =
    if (tables.isEmpty) 0.0 else tables.map(t => truth.answerSize(t.id)).sum.toDouble / tables.size
}

object LakeDf {

  /** Canonical long format consumed by all feature extraction:
    * `table_id, col_idx, col_name, row_idx, value` (value nullable).
    */
  def toLong(spark: SparkSession, tables: Seq[LakeTable]): DataFrame = {
    import spark.implicits._
    val rows = tables.iterator.flatMap { t =>
      t.columns.iterator.zipWithIndex.flatMap { case (c, ci) =>
        c.values.iterator.zipWithIndex.map { case (v, ri) =>
          (t.id, ci, c.name, ri.toLong, v)
        }
      }
    }.toSeq
    spark.createDataset(rows).toDF("table_id", "col_idx", "col_name", "row_idx", "value")
  }
}
