package repro

import org.scalacheck.{Gen, Prop, Test => ScTest}
import org.scalacheck.rng.Seed
import repro.lake.{LakeColumn, LakeTable}

/** Minimal ScalaCheck bridge (the scalatestplus adapter is not in the
  * offline cache): run a property and assert it passed.
  */
trait PropSupport {

  /** `seed` fixes the generated cases, for properties too costly to run
    * on more than a few.
    */
  def checkProp(p: Prop, minSuccessful: Int = 100, seed: Option[Long] = None): Unit = {
    val params = ScTest.Parameters.default.withMinSuccessfulTests(minSuccessful)
      .withInitialSeed(seed.map(Seed(_)))
    val res = ScTest.check(params, p)
    assert(res.passed, s"property failed: ${res.status}")
  }

  def forAllGen[A](gen: Gen[A], minSuccessful: Int = 100, seed: Option[Long] = None)(body: A => Unit): Unit =
    checkProp(Prop.forAll(gen) { a => body(a); true }, minSuccessful, seed)

  /** Punctuation, including non-ASCII currency signs. */
  val punctChars: Seq[Char] = ",.-#$£_/()'@:".toSeq

  /** Cell values for the text kernels: ASCII and non-ASCII letters and
    * digits, every ASCII whitespace character (`\u000B` included), NBSP,
    * `\u2003`, other control and separator characters, surrogate halves and
    * punctuation; plus punctuation-only strings, `""` and `null`.
    */
  val textValues: Gen[String] = {
    val other = "éßİıЖ中٣５\t\u000B\n\r\f \u00A0\u2003\u001C\u0001\uD835\uDD3C".toSeq
    val chars = Gen.frequency(6 -> Gen.alphaNumChar, 3 -> Gen.oneOf(other), 2 -> Gen.oneOf(punctChars))
    Gen.frequency(
      20 -> Gen.listOf(chars).map(_.mkString),
      3 -> Gen.listOf(Gen.oneOf(punctChars)).map(_.mkString),
      1 -> Gen.const(""),
      1 -> Gen.const[String](null))
  }

  private val whitespace: Gen[String] = Gen.oneOf(" ", "   ", "\t", " \u00A0 ")
  private val numbers: Gen[String] = Gen.oneOf(
    Gen.choose(-99, 999).map(_.toString), Gen.choose(0, 9999).map(i => s"${i / 100}.${i % 100}"))

  private def columnGen(pool: Seq[String], nRows: Int, allNumeric: Boolean): Gen[LakeColumn] = for {
    name <- Gen.frequency(6 -> Gen.oneOf("id", "name", "city", "code", "amount"), 1 -> Gen.const(""))
    numeric <- if (allNumeric) Gen.const(true) else Gen.frequency(1 -> true, 3 -> false)
    values <- Gen.listOfN(nRows,
      if (numeric) numbers else Gen.frequency(4 -> Gen.oneOf(pool), 1 -> textValues, 1 -> whitespace))
  } yield LakeColumn(name, values.toIndexedSeq, "generated", isSubject = false)

  private def tableGen(i: Int, pool: Seq[String]): Gen[LakeTable] = for {
    prefix <- Gen.oneOf("t", "t#", "a#b#")
    nRows <- Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 6))
    allNumeric <- Gen.frequency(1 -> true, 4 -> false)
    nCols <- Gen.frequency(1 -> Gen.const(1), 3 -> Gen.choose(2, 4))
    cols <- Gen.listOfN(nCols, columnGen(pool, nRows, allNumeric))
  } yield LakeTable(s"$prefix$i", "generated", cols.toIndexedSeq)

  /** Small lakes whose tables draw text cells from one shared pool, so that
    * they overlap: empty, null and whitespace-only cells, all-numeric,
    * single-row and single-column tables, `#` in table ids, empty and
    * duplicate column names.
    */
  val generatedLakes: Gen[IndexedSeq[LakeTable]] = for {
    pool <- Gen.listOfN(6, Gen.frequency(4 -> textValues, 1 -> whitespace, 1 -> numbers))
    nTables <- Gen.choose(2, 5)
    tables <- Gen.sequence[List[LakeTable], LakeTable]((0 until nTables).map(tableGen(_, pool)))
  } yield tables.toIndexedSeq
}
