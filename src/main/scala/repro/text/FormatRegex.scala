package repro.text

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

  /** Classify one non-whitespace token into its primitive class symbol:
    * the first of the paper's classes, in enumeration order, whose ASCII
    * pattern matches the whole token.
    */
  def classify(token: String): Char = {
    val n = token.length
    var upper = 0; var lower = 0; var digit = 0
    var i = 0
    while (i < n) {
      val c = token.charAt(i)
      if (c >= 'A' && c <= 'Z') upper += 1
      else if (c >= 'a' && c <= 'z') lower += 1
      else if (c >= '0' && c <= '9') digit += 1
      i += 1
    }
    if (n == 0 || upper + lower + digit < n) 'P'
    else if (upper == 1 && lower == n - 1 && n > 1 && token.charAt(0) <= 'Z') 'C' // a capital, then lower case
    else if (upper == n) 'U'
    else if (lower == n) 'L'
    else if (digit == n) 'N'
    else 'A'
  }

  /** Lexical scan: maximal alphanumeric runs and maximal punctuation runs,
    * in order of appearance; whitespace only separates runs.
    */
  def lex(value: String): Seq[String] = {
    if (value == null) return Seq.empty
    def kind(c: Char): Int = if (Character.isLetterOrDigit(c)) 1 else if (Character.isWhitespace(c)) 0 else 2
    val out = Seq.newBuilder[String]
    var i = 0
    while (i < value.length) {
      val k = kind(value.charAt(i))
      val start = i
      i += 1
      while (i < value.length && kind(value.charAt(i)) == k) i += 1
      if (k != 0) out += value.substring(start, i)
    }
    out.result()
  }

  /** get_regex_string(v): the collapsed class string of a whole value. */
  def formatString(value: String): String = {
    val sb = new StringBuilder
    var prev = ' '
    var plus = false
    lex(value).foreach { tok =>
      val s = classify(tok)
      if (s == prev) {
        if (!plus) { sb.append('+'); plus = true }
      } else { sb.append(s); prev = s; plus = false }
    }
    sb.result()
  }
}
