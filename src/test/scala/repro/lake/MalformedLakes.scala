package repro.lake

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}

/** Long-format lakes with one malformed cell, each with the message naming
  * its table, column and row: what every index build over a long-format
  * lake must reject, at the API boundary, with an
  * `IllegalArgumentException` carrying that message. A spec registers the
  * tests of its build with [[rejectsMalformedLakes]].
  */
trait MalformedLakes extends SparkSpec with PropSupport {

  private val kinds = Seq("a null table id", "an empty table id", "a negative column index",
    "a column with two names", "a column with two cells in one row")

  /** `good`, the long format of a lake holding `t`, with one malformed cell
    * of each of the `kinds`, in that order, at column `ci`, row `ri` of `t`,
    * and the message naming it. A second name goes to a copy of the cell in
    * the row after `t`'s last.
    */
  private def injected(good: DataFrame, t: LakeTable, ci: Int, ri: Int): Seq[(DataFrame, String)] = {
    val cell = col("table_id") === t.id && col("col_idx") === ci && col("row_idx") === ri
    def set(column: String, v: Column) = good.withColumn(column, when(cell, v).otherwise(col(column)))
    val name = t.columns(ci).name
    val renamedNextRow = good.filter(cell).withColumn("row_idx", lit(t.numRows.toLong)).withColumn("col_name", lit("renamed"))
    Seq(
      set("table_id", lit(null).cast("string")) -> s"null table id at column $ci ('$name'), row $ri",
      set("table_id", lit("")) -> s"empty table id at column $ci ('$name'), row $ri",
      set("col_idx", lit(-1)) -> s"table '${t.id}' has a negative column index -1 ('$name') in row $ri",
      good.union(renamedNextRow) ->
        s"table '${t.id}' column $ci has two names, '$name' in row ${t.numRows - 1} and 'renamed' in row ${t.numRows}",
      good.union(good.filter(cell).withColumn("value", lit("x"))) -> s"table '${t.id}' column $ci has two cells in row $ri",
    )
  }

  private def assertRejected(index: DataFrame => Any, bad: DataFrame, message: String): Unit = {
    val e = intercept[IllegalArgumentException](index(bad))
    assert(e.getMessage.contains(message), e.getMessage)
  }

  /** Tests that `index`, the build named `build`, rejects each kind of
    * malformed cell: at column 1, row 2 of the first of the first two of
    * `tables`, and at a generated cell of generated lakes.
    */
  protected def rejectsMalformedLakes(build: String, index: DataFrame => Any, tables: => Seq[LakeTable]): Unit = {
    for ((kind, i) <- kinds.zipWithIndex)
      test(s"$build rejects $kind in a two-table lake, naming the table, column and row") {
        val (bad, message) = injected(LakeDf.toLong(spark, tables.take(2)), tables.head, 1, 2)(i)
        assertRejected(index, bad, message)
      }

    test(s"$build rejects one malformed cell of each kind in generated lakes, naming the table, column and row") {
      val cells = for {
        tables <- generatedLakes
        t <- Gen.oneOf(tables)
        ci <- Gen.choose(0, t.arity - 1)
        ri <- Gen.choose(0, t.numRows - 1)
      } yield (tables, t, ci, ri)
      forAllGen(cells, minSuccessful = 4, seed = Some(20261019L)) { case (tables, t, ci, ri) =>
        injected(LakeDf.toLong(spark, tables), t, ci, ri).foreach { case (bad, message) => assertRejected(index, bad, message) }
      }
    }
  }
}
