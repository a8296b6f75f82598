package repro.text

import java.util.regex.Pattern
import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}

class FormatRegexSpec extends SparkSpec with PropSupport {

  /** The regex and StringBuilder implementations the counting and index
    * scans replaced, kept as their specification.
    */
  private object Reference {
    private val Capitalised = Pattern.compile("[A-Z][a-z]+")
    private val Upper = Pattern.compile("[A-Z]+")
    private val Lower = Pattern.compile("[a-z]+")
    private val Digits = Pattern.compile("[0-9]+")
    private val Alnum = Pattern.compile("[A-Za-z0-9]+")

    def classify(token: String): Char =
      if (token.isEmpty) 'P'
      else if (Capitalised.matcher(token).matches()) 'C'
      else if (Upper.matcher(token).matches()) 'U'
      else if (Lower.matcher(token).matches()) 'L'
      else if (Digits.matcher(token).matches()) 'N'
      else if (Alnum.matcher(token).matches()) 'A'
      else 'P'

    def lex(value: String): Seq[String] = {
      if (value == null) return Seq.empty
      val out = Seq.newBuilder[String]
      val cur = new StringBuilder
      var curKind = 0 // 0 none, 1 alnum, 2 punct
      def flush(): Unit = { if (cur.nonEmpty) { out += cur.result(); cur.clear() }; curKind = 0 }
      value.foreach { c =>
        val kind = if (Character.isLetterOrDigit(c)) 1 else if (Character.isWhitespace(c)) 0 else 2
        if (kind == 0) flush()
        else {
          if (curKind != 0 && curKind != kind) flush()
          cur.append(c); curKind = kind
        }
      }
      flush()
      out.result()
    }

    def formatString(value: String): String = {
      val syms = lex(value).map(classify)
      if (syms.isEmpty) return ""
      val sb = new StringBuilder
      var prev = ' '
      var plus = false
      syms.foreach { s =>
        if (s == prev) {
          if (!plus) { sb.append('+'); plus = true }
        } else { sb.append(s); prev = s; plus = false }
      }
      sb.result()
    }
  }

  /** Short tokens over the characters that separate the classes. */
  private val tokens: Gen[String] = Gen.resize(5, Gen.listOf(Gen.oneOf("AZaz09é٣_".toSeq)).map(_.mkString))

  // ---- classify ------------------------------------------------------------

  test("classify capitalised word as C") { assert(FormatRegex.classify("Portland") == 'C') }
  test("classify upper-case run as U") { assert(FormatRegex.classify("NHS") == 'U') }
  test("classify lower-case run as L") { assert(FormatRegex.classify("street") == 'L') }
  test("classify digits as N") { assert(FormatRegex.classify("2024") == 'N') }
  test("classify mixed alphanumerics as A") {
    assert(FormatRegex.classify("M13") == 'A')
    assert(FormatRegex.classify("3BE") == 'A')
  }
  test("classify punctuation as P") {
    assert(FormatRegex.classify(",") == 'P')
    assert(FormatRegex.classify("--") == 'P')
  }
  test("classify single capital as U (C requires a lower-case tail)") {
    assert(FormatRegex.classify("M") == 'U')
  }
  test("classification follows the paper's priority order") {
    // "Ab" matches C before A.
    assert(FormatRegex.classify("Ab") == 'C')
    // "ab" matches L before A.
    assert(FormatRegex.classify("ab") == 'L')
  }

  // ---- lex -----------------------------------------------------------------

  test("lex separates alphanumeric and punctuation runs") {
    assert(FormatRegex.lex("18 Portland Street, M1 3BE") ==
      Seq("18", "Portland", "Street", ",", "M1", "3BE"))
  }

  test("lex groups consecutive punctuation into one run") {
    assert(FormatRegex.lex("a--b") == Seq("a", "--", "b"))
  }

  test("lex of whitespace-only input is empty") {
    assert(FormatRegex.lex("   ") == Seq.empty)
    assert(FormatRegex.lex(null) == Seq.empty)
  }

  // ---- formatString --------------------------------------------------------

  test("format of the paper's address example") {
    // 18 / Portland / Street / , / M1 / 3BE → N C C P A A → NC+PA+
    assert(FormatRegex.formatString("18 Portland Street, M1 3BE") == "NC+PA+")
  }

  test("format of a date") {
    assert(FormatRegex.formatString("2019-03-07") == "NPNPN")
  }

  test("format of a time range") {
    assert(FormatRegex.formatString("08:00-18:00") == "NPNPNPN")
  }

  test("format collapses repeats to a single plus") {
    assert(FormatRegex.formatString("a b c d") == "L+")
  }

  test("format of a postcode") {
    assert(FormatRegex.formatString("M13 9PL") == "A+")
  }

  test("format of an email") {
    assert(FormatRegex.formatString("jane.smith@nhs.uk") == "LPLPLPL")
  }

  test("format of money") {
    assert(FormatRegex.formatString("£73,648") == "PNPN")
  }

  test("format of empty/null is empty") {
    assert(FormatRegex.formatString("") == "")
    assert(FormatRegex.formatString(null) == "")
  }

  test("same-format values share format strings; different formats differ") {
    val a = FormatRegex.formatString("M1 3BE")
    val b = FormatRegex.formatString("BT7 1JL")
    val c = FormatRegex.formatString("2019-03-07")
    assert(a == b)
    assert(a != c)
  }

  // ---- properties ----------------------------------------------------------

  test("property: classify equals the regex reference") {
    forAllGen(Gen.oneOf(tokens, textValues.map(v => if (v == null) "" else v)), 2000) { t =>
      assert(FormatRegex.classify(t) == Reference.classify(t), t)
    }
  }

  test("property: lex and formatString equal the reference") {
    forAllGen(textValues, 1000) { s =>
      assert(FormatRegex.lex(s) == Reference.lex(s), String.valueOf(s))
      assert(FormatRegex.formatString(s) == Reference.formatString(s), String.valueOf(s))
    }
  }

  test("property: format strings only contain class symbols and plus") {
    val allowed = "CULNAP+".toSet
    forAllGen(Gen.asciiPrintableStr) { s =>
      FormatRegex.formatString(s).foreach(c => assert(allowed.contains(c)))
    }
  }

  test("property: no two consecutive identical symbols survive collapsing") {
    forAllGen(Gen.asciiPrintableStr) { s =>
      val f = FormatRegex.formatString(s)
      f.sliding(2).foreach { w => if (w.length == 2) assert(w(0) != w(1)) }
    }
  }

  test("property: format string is deterministic") {
    forAllGen(Gen.asciiPrintableStr) { s =>
      assert(FormatRegex.formatString(s) == FormatRegex.formatString(s))
    }
  }
}
