package repro.text

import java.util.Locale

/** Tokenization primitives shared by every evidence type (§III-A, Example 2).
  *
  * A value ("document") is split into *parts* at punctuation characters; each
  * part is split into *words* at whitespace. The 𝕍-evidence keeps, per part,
  * the word that is rarest in the attribute extent; the 𝔼-evidence embeds the
  * word that is most frequent (Algorithm 1, lines 9–14). Both need the same
  * part/word decomposition, produced here. Lower-casing uses `Locale.ROOT`,
  * so tokens do not depend on the JVM's default locale.
  */
object Tokenizer {

  /** Characters the paper treats as part delimiters (plus anything that is
    * neither alphanumeric nor whitespace, per the 'P' catch-all class).
    */
  @inline def isPunct(c: Char): Boolean =
    !Character.isLetterOrDigit(c) && !Character.isWhitespace(c)

  /** ASCII whitespace: the characters of the regex class `\s`. */
  @inline private def isSpace(c: Char): Boolean = c == ' ' || (c >= '\t' && c <= '\r')

  /** The runs of `s` between punctuation characters (`punct`) or between
    * ASCII whitespace, trimmed as `String.trim` trims (characters up to
    * U+0020), when something remains; `null` has none.
    */
  private def runs(s: String, punct: Boolean): Seq[String] = {
    val out = Seq.newBuilder[String]
    var i = 0
    while (s != null && i < s.length) {
      var start = i
      while (i < s.length && !(if (punct) isPunct(s.charAt(i)) else isSpace(s.charAt(i)))) i += 1
      var end = i
      while (start < end && s.charAt(start) <= ' ') start += 1
      while (end > start && s.charAt(end - 1) <= ' ') end -= 1
      if (start < end) out += s.substring(start, end)
      i += 1
    }
    out.result()
  }

  /** Split a raw value into parts at punctuation characters. Empty parts are
    * dropped; parts keep their internal whitespace for later word splitting.
    */
  def parts(value: String): Seq[String] = runs(value, punct = true)

  /** Words of one part: split at ASCII whitespace, trimmed, lower-cased,
    * empties dropped.
    */
  def words(part: String): Seq[String] = runs(part, punct = false).map(_.toLowerCase(Locale.ROOT))

  /** All tokens of a value — get_tokens(v) in Algorithm 1. */
  def tokens(value: String): Seq[String] = parts(value).flatMap(words)

  /** Parts as word lists — the unit over which rarest/most-frequent word
    * selection happens.
    */
  def partWords(value: String): Seq[Seq[String]] =
    parts(value).map(words).filter(_.nonEmpty)

  /** q-grams of an attribute name — get_qgrams(a). The name is lower-cased and
    * stripped of non-alphanumerics first so `Practice Name` and `PracticeName`
    * produce overlapping grams. Names shorter than q yield the whole name.
    */
  def qgrams(name: String, q: Int = 4): Set[String] = {
    if (name == null) return Set.empty
    val norm = name.toLowerCase(Locale.ROOT).filter(Character.isLetterOrDigit)
    if (norm.isEmpty) Set.empty
    else if (norm.length <= q) Set(norm)
    else norm.sliding(q).toSet
  }

  /** The number a value holds, as `Double.parseDouble` reads it: the value
    * trimmed as `String.trim` trims, every ',' removed, then a leading '£',
    * '$' and '€' stripped in that order, each at most once, when what
    * remains matches `[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?` with ASCII
    * digits. One pass over the chars: states 0–3 are the currency prefix
    * (after nothing, '£', '$', '€'), then 4 sign, 5 integer digits, 6 a
    * leading '.', 7 fraction, 8 'e', 9 exponent sign, 10 exponent digits;
    * 5, 7 and 10 accept, −1 rejects.
    */
  private def numberForm(raw: String): Option[String] = {
    if (raw == null) return None
    var i = 0; var end = raw.length
    while (i < end && raw.charAt(i) <= ' ') i += 1
    while (end > i && raw.charAt(end - 1) <= ' ') end -= 1
    val out = new java.lang.StringBuilder(end - i)
    var state = 0
    while (i < end && state >= 0) {
      val c = raw.charAt(i)
      val digit = c >= '0' && c <= '9'
      val exp = c == 'e' || c == 'E'
      if (c != ',') {
        state = state match {
          case 0 | 1 | 2 | 3 =>
            if (c == '£' && state < 1) 1 else if (c == '$' && state < 2) 2 else if (c == '€' && state < 3) 3
            else if (c == '+' || c == '-') 4 else if (digit) 5 else if (c == '.') 6 else -1
          case 4 => if (digit) 5 else if (c == '.') 6 else -1
          case 5 => if (digit) 5 else if (c == '.') 7 else if (exp) 8 else -1
          case 6 => if (digit) 7 else -1
          case 7 => if (digit) 7 else if (exp) 8 else -1
          case 8 => if (c == '+' || c == '-') 9 else if (digit) 10 else -1
          case _ => if (digit) 10 else -1
        }
        if (state >= 4) out.append(c)
      }
      i += 1
    }
    if (state == 5 || state == 7 || state == 10) Some(out.toString) else None
  }

  /** True when a trimmed value parses as a number (optionally signed, with
    * thousands separators or a currency marker stripped). Used for numeric-
    * attribute detection (§III-C).
    */
  def isNumericValue(raw: String): Boolean = numberForm(raw).isDefined

  /** Parse a numeric value after the same normalisation as [[isNumericValue]];
    * None when not numeric.
    */
  def parseNumeric(raw: String): Option[Double] = numberForm(raw).map(_.toDouble)
}
