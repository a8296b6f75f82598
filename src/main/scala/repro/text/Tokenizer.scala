package repro.text

import java.util.regex.Pattern

/** Tokenization primitives shared by every evidence type (§III-A, Example 2).
  *
  * A value ("document") is split into *parts* at punctuation characters; each
  * part is split into *words* at whitespace. The 𝕍-evidence keeps, per part,
  * the word that is rarest in the attribute extent; the 𝔼-evidence embeds the
  * word that is most frequent (Algorithm 1, lines 9–14). Both need the same
  * part/word decomposition, produced here.
  */
object Tokenizer {

  /** Characters the paper treats as part delimiters (plus anything that is
    * neither alphanumeric nor whitespace, per the 'P' catch-all class).
    */
  @inline def isPunct(c: Char): Boolean =
    !Character.isLetterOrDigit(c) && !Character.isWhitespace(c)

  /** Split a raw value into parts at punctuation characters. Empty parts are
    * dropped; parts keep their internal whitespace for later word splitting.
    */
  def parts(value: String): Seq[String] = {
    if (value == null) return Seq.empty
    val out = Seq.newBuilder[String]
    val cur = new StringBuilder
    value.foreach { c =>
      if (isPunct(c)) {
        if (cur.nonEmpty) { out += cur.result(); cur.clear() }
      } else cur.append(c)
    }
    if (cur.nonEmpty) out += cur.result()
    out.result().map(_.trim).filter(_.nonEmpty)
  }

  /** Words of one part: whitespace split, lower-cased, empties dropped. */
  def words(part: String): Seq[String] =
    if (part == null) Seq.empty
    else part.split("\\s+").iterator.map(_.trim.toLowerCase).filter(_.nonEmpty).toSeq

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
    val norm = name.toLowerCase.filter(Character.isLetterOrDigit)
    if (norm.isEmpty) Set.empty
    else if (norm.length <= q) Set(norm)
    else norm.sliding(q).toSet
  }

  private val Number = Pattern.compile("[+-]?(\\d+\\.?\\d*|\\.\\d+)([eE][+-]?\\d+)?")

  /** A value with thousands separators and a leading currency marker
    * stripped, when what remains is a number.
    */
  private def numberForm(raw: String): Option[String] =
    if (raw == null) None
    else {
      val s = raw.trim.replace(",", "").stripPrefix("£").stripPrefix("$").stripPrefix("€")
      if (Number.matcher(s).matches()) Some(s) else None
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
