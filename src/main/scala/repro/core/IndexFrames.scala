package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.lsh.{Banding, BucketIndex}

/** Signature `sig` of group ordinal `group` of attribute `attr`, column `colIdx` of table `tableId`. */
final case class Signed(attr: String, tableId: String, colIdx: Int, group: Int, sig: Array[Long])

/** Table II's frames of a banded LSH index, D³L's, TUS's or Aurum's, listing `signed` in order. The index's groups
  * (evidence types or measures) are named in column `column`, and group g is banded as the index bands it, under
  * `BucketIndex.levels(groups, simhash)(g)`.
  *  - signatures: attr, <column>, sig (array<long>), table_id, col_idx
  *  - buckets:    <column>, band, bucket, attr, table_id, one row per key of [[Banding.buckets]]
  */
final class IndexFrames(spark: SparkSession, column: String, groups: Seq[String], simhash: String,
                        signed: => Seq[Signed]) {
  import spark.implicits._
  private val levels = BucketIndex.levels(groups, simhash)

  lazy val signatures: DataFrame = signed.map(s => (s.attr, groups(s.group), s.sig, s.tableId, s.colIdx))
    .toDF("attr", column, "sig", "table_id", "col_idx")
  lazy val buckets: DataFrame = signed.flatMap(s => Banding.buckets(s.sig, levels(s.group))
    .map { case (band, bucket) => (groups(s.group), band, bucket, s.attr, s.tableId) })
    .toDF(column, "band", "bucket", "attr", "table_id")
}
