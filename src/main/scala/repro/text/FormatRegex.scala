package repro.text

import java.util.regex.Pattern

/** Format-describing regular-expression strings (𝔽-evidence, §III-B).
  *
  * A value is scanned into maximal runs of letters/digits vs punctuation
  * (whitespace separates runs but produces no symbol), each run is classified
  * into the first matching primitive lexical class, and consecutive repeats of
  * the same symbol are collapsed to `X+`:
  *
  *   C = [A-Z][a-z]+   U = [A-Z]+   L = [a-z]+
  *   N = [0-9]+        A = [A-Za-z0-9]+ (mixed)   P = punctuation run
  *
  * Example: "18 Portland Street, M1 3BE" → tokens 18 / Portland / Street /
  * "," / M1 / 3BE → N C C P A A → "NC+PA+".
  */
object FormatRegex {

  private val Classes = "CULNAP"

  /** Classify one non-whitespace token into its primitive class symbol,
    * trying classes in the paper's enumeration order.
    */
  def classify(token: String): Char =
    if (token.isEmpty) 'P'
    else if (Capitalised.matcher(token).matches()) 'C'
    else if (Upper.matcher(token).matches()) 'U'
    else if (Lower.matcher(token).matches()) 'L'
    else if (Digits.matcher(token).matches()) 'N'
    else if (Alnum.matcher(token).matches()) 'A'
    else 'P'

  private val Capitalised = Pattern.compile("[A-Z][a-z]+")
  private val Upper = Pattern.compile("[A-Z]+")
  private val Lower = Pattern.compile("[a-z]+")
  private val Digits = Pattern.compile("[0-9]+")
  private val Alnum = Pattern.compile("[A-Za-z0-9]+")

  /** Lexical scan: maximal alphanumeric runs and maximal punctuation runs,
    * in order of appearance; whitespace only separates runs.
    */
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

  /** get_regex_string(v): the collapsed class string of a whole value. */
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

  /** All primitive class symbols, exposed for tests. */
  def classSymbols: Seq[Char] = Classes.toSeq
}
