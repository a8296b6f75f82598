package repro.text

import java.util.Locale
import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}

class TokenizerSpec extends SparkSpec with PropSupport {

  /** The StringBuilder, `split("\\s+")` and regex implementations the char
    * loops replaced, kept as their specification (lower-casing with
    * `Locale.ROOT`).
    */
  private object Reference {
    def parts(value: String): Seq[String] = {
      if (value == null) return Seq.empty
      val out = Seq.newBuilder[String]
      val cur = new StringBuilder
      value.foreach { c =>
        if (Tokenizer.isPunct(c)) {
          if (cur.nonEmpty) { out += cur.result(); cur.clear() }
        } else cur.append(c)
      }
      if (cur.nonEmpty) out += cur.result()
      out.result().map(_.trim).filter(_.nonEmpty)
    }

    def words(part: String): Seq[String] =
      if (part == null) Seq.empty
      else part.split("\\s+").iterator.map(_.trim.toLowerCase(Locale.ROOT)).filter(_.nonEmpty).toSeq

    def partWords(value: String): Seq[Seq[String]] = parts(value).map(words).filter(_.nonEmpty)

    private val Number = java.util.regex.Pattern.compile("[+-]?(\\d+\\.?\\d*|\\.\\d+)([eE][+-]?\\d+)?")

    /** The number a value holds, as `Tokenizer.numberForm` finds it. */
    def numberForm(raw: String): Option[String] =
      if (raw == null) None
      else {
        val s = raw.trim.replace(",", "").stripPrefix("£").stripPrefix("$").stripPrefix("€")
        if (Number.matcher(s).matches()) Some(s) else None
      }
  }

  /** Number-like strings: digits, signs, commas, dots, exponents and the
    * currency markers before or after the sign, in well-formed shapes and in
    * random sequences, with surrounding whitespace (control characters and
    * NBSP included), non-ASCII digits and stray letters.
    */
  private val numberLike: Gen[String] = {
    val space = Gen.oneOf("", "", " ", "\t", " \u0001", "\u00A0")
    val currency = Gen.oneOf("", "", "£", "$", "€", "£$", "$€", "£€", "£$€", "€$", "$£")
    val digits = Gen.oneOf(Gen.numStr.map(_.take(4)), Gen.oneOf("1,234", "12,3", ",5", "٣", "５"))
    val shaped = for {
      (ws0, ws1) <- Gen.zip(space, space)
      (c0, c1) <- Gen.zip(currency, Gen.frequency(4 -> Gen.const(""), 1 -> currency))
      sign <- Gen.oneOf("", "", "+", "-")
      (int, frac) <- Gen.zip(digits, digits)
      dot <- Gen.oneOf("", ".", "..")
      exp <- Gen.oneOf("", "", "e", "E", "e-", "E+", "e+-")
      expDigits <- digits
    } yield s"$ws0$c0$sign$c1$int$dot$frac$exp${if (exp.isEmpty) "" else expDigits}$ws1"
    val piece = Gen.oneOf("0", "7", "42", "+", "-", ",", ".", "e", "E", "£", "$", "€", " ", "\t", "٣", "x")
    Gen.frequency(3 -> shaped, 1 -> Gen.listOf(piece).map(_.mkString))
  }

  // ---- parts ---------------------------------------------------------------

  test("parts splits at punctuation") {
    assert(Tokenizer.parts("18 Portland Street, M1 3BE") == Seq("18 Portland Street", "M1 3BE"))
  }

  test("parts handles multiple punctuation runs") {
    assert(Tokenizer.parts("a,b;c") == Seq("a", "b", "c"))
  }

  test("parts drops empty segments") {
    assert(Tokenizer.parts(",,a,,") == Seq("a"))
  }

  test("parts of null is empty") {
    assert(Tokenizer.parts(null) == Seq.empty)
  }

  test("parts of empty string is empty") {
    assert(Tokenizer.parts("") == Seq.empty)
  }

  test("parts keeps internal whitespace") {
    assert(Tokenizer.parts("hello world") == Seq("hello world"))
  }

  test("parts treats hyphen as punctuation") {
    assert(Tokenizer.parts("08:00-18:00") == Seq("08", "00", "18", "00"))
  }

  // ---- words / tokens ------------------------------------------------------

  test("words lower-cases and splits on whitespace") {
    assert(Tokenizer.words("Portland  Street") == Seq("portland", "street"))
  }

  test("words of null is empty") {
    assert(Tokenizer.words(null) == Seq.empty)
  }

  test("tokens flattens parts to words") {
    assert(Tokenizer.tokens("18 Portland Street, M1 3BE") ==
      Seq("18", "portland", "street", "m1", "3be"))
  }

  test("partWords groups words by part") {
    assert(Tokenizer.partWords("18 Portland Street, M1 3BE") ==
      Seq(Seq("18", "portland", "street"), Seq("m1", "3be")))
  }

  test("partWords drops empty parts") {
    assert(Tokenizer.partWords(" , ") == Seq.empty)
  }

  // ---- q-grams -------------------------------------------------------------

  test("qgrams of 'Address' match the paper's Example 2") {
    assert(Tokenizer.qgrams("Address") == Set("addr", "ddre", "dres", "ress"))
  }

  test("qgrams normalise case and spacing") {
    assert(Tokenizer.qgrams("Practice Name") == Tokenizer.qgrams("practicename"))
  }

  test("qgrams of short names yield the whole name") {
    assert(Tokenizer.qgrams("GP") == Set("gp"))
  }

  test("qgrams of exactly q characters yield one gram") {
    assert(Tokenizer.qgrams("City") == Set("city"))
  }

  test("qgrams of null/symbol-only names are empty") {
    assert(Tokenizer.qgrams(null).isEmpty)
    assert(Tokenizer.qgrams("--").isEmpty)
  }

  test("qgrams overlap for similar names") {
    val a = Tokenizer.qgrams("Practice Name")
    val b = Tokenizer.qgrams("Practice")
    assert((a intersect b).nonEmpty)
  }

  test("qgrams with custom q") {
    assert(Tokenizer.qgrams("abcd", q = 2) == Set("ab", "bc", "cd"))
  }

  // ---- numeric detection ---------------------------------------------------

  test("isNumericValue accepts plain integers and decimals") {
    assert(Tokenizer.isNumericValue("1202"))
    assert(Tokenizer.isNumericValue("3.14"))
    assert(Tokenizer.isNumericValue("-7"))
    assert(Tokenizer.isNumericValue(".5"))
  }

  test("isNumericValue accepts currency and thousands separators") {
    assert(Tokenizer.isNumericValue("£73,648"))
    assert(Tokenizer.isNumericValue("1,234.50"))
    assert(Tokenizer.isNumericValue("$99"))
  }

  test("isNumericValue rejects text, mixed and empty") {
    assert(!Tokenizer.isNumericValue("Belfast"))
    assert(!Tokenizer.isNumericValue("M1 3BE"))
    assert(!Tokenizer.isNumericValue(""))
    assert(!Tokenizer.isNumericValue(null))
    assert(!Tokenizer.isNumericValue("12a"))
  }

  test("isNumericValue accepts scientific notation") {
    assert(Tokenizer.isNumericValue("1e5"))
    assert(Tokenizer.isNumericValue("2.5E-3"))
  }

  test("parseNumeric round-trips values") {
    assert(Tokenizer.parseNumeric("£1,234.50").contains(1234.50))
    assert(Tokenizer.parseNumeric("42").contains(42.0))
    assert(Tokenizer.parseNumeric("x").isEmpty)
    assert(Tokenizer.parseNumeric(null).isEmpty)
  }

  // ---- properties ----------------------------------------------------------

  test("property: tokens are always lower-case and non-empty") {
    forAllGen(Gen.asciiPrintableStr) { s =>
      Tokenizer.tokens(s).foreach { t =>
        assert(t.nonEmpty && t == t.toLowerCase)
      }
    }
  }

  test("property: parts, words, partWords and tokens equal the split-based reference") {
    forAllGen(textValues, 1000) { s =>
      assert(Tokenizer.parts(s) == Reference.parts(s), String.valueOf(s))
      assert(Tokenizer.words(s) == Reference.words(s), String.valueOf(s))
      assert(Tokenizer.partWords(s) == Reference.partWords(s), String.valueOf(s))
      assert(Tokenizer.tokens(s) == Reference.parts(s).flatMap(Reference.words), String.valueOf(s))
    }
  }

  test("lower-casing does not depend on the JVM's default locale") {
    val saved = Locale.getDefault
    try {
      Locale.setDefault(Locale.forLanguageTag("tr"))
      assert(Tokenizer.words("TITLE Case") == Seq("title", "case"))
      assert(Tokenizer.qgrams("TITLE") == Set("titl", "itle"))
    } finally Locale.setDefault(saved)
  }

  test("property: parts contain no punctuation characters") {
    forAllGen(Gen.asciiPrintableStr) { s =>
      Tokenizer.parts(s).foreach { p =>
        assert(!p.exists(Tokenizer.isPunct))
      }
    }
  }

  test("property: qgrams have length at most q") {
    forAllGen(Gen.alphaNumStr) { s =>
      Tokenizer.qgrams(s).foreach(g => assert(g.length <= 4))
    }
  }

  test("property: parseNumeric reads the number the regex form accepts, and only it") {
    var accepted = 0
    forAllGen(numberLike, 2000) { s =>
      val want = Reference.numberForm(s)
      assert(Tokenizer.isNumericValue(s) == want.isDefined, s)
      assert(Tokenizer.parseNumeric(s).map(java.lang.Double.doubleToLongBits) ==
        want.map(w => java.lang.Double.doubleToLongBits(w.toDouble)), s)
      if (want.isDefined) accepted += 1
    }
    assert(accepted >= 200, s"only $accepted of the generated strings are numbers")
  }

  test("property: parseNumeric defined iff isNumericValue") {
    forAllGen(Gen.oneOf(Gen.alphaNumStr, Gen.choose(-1e6, 1e6).map(_.toString))) { s =>
      assert(Tokenizer.parseNumeric(s).isDefined == Tokenizer.isNumericValue(s))
    }
  }
}
