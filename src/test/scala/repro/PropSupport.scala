package repro

import org.scalacheck.{Gen, Prop, Test => ScTest}
import org.scalacheck.rng.Seed

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
}
