package repro.lake

import java.util.Locale
import scala.util.Random

/** Format-variant renderers and noise injection — the "dirtiness" of the
  * Real lakes (§V, Experiment 3 discussion: real tables represent the same
  * entities inconsistently; value-equality approaches suffer, q-gram/format/
  * embedding evidence survives).
  *
  * A renderer maps a *canonical* value (as produced by [[Vocab]]) to a
  * table-specific surface form. Renderers are chosen per (table, domain),
  * so within one column the representation is consistent — matching how real
  * publishers behave.
  */
object Dirt {

  type Renderer = String => String

  val identity: Renderer = s => s
  val upper: Renderer = s => if (s == null) null else s.toUpperCase(Locale.ROOT)
  val lower: Renderer = s => if (s == null) null else s.toLowerCase(Locale.ROOT)

  /** "Blackfriars Medical Practice" → "Blackfriars Medical" (drop last word). */
  val dropLastWord: Renderer = { s =>
    if (s == null) null
    else {
      val ws = s.split(" ")
      if (ws.length > 2) ws.dropRight(1).mkString(" ") else s
    }
  }

  /** Postcode "M13 9PL" → "M139PL". */
  val stripSpaces: Renderer = s => if (s == null) null else s.replace(" ", "")

  /** ISO date "2019-03-07" → "07/03/2019". */
  val dateSlashDmy: Renderer = { s =>
    if (s == null || !s.matches("\\d{4}-\\d{2}-\\d{2}")) s
    else { val Array(y, m, d) = s.split("-"); s"$d/$m/$y" }
  }

  /** ISO date → "07.03.2019". */
  val dateDotDmy: Renderer = { s =>
    if (s == null || !s.matches("\\d{4}-\\d{2}-\\d{2}")) s
    else { val Array(y, m, d) = s.split("-"); s"$d.$m.$y" }
  }

  /** Plain number "73648" → "£73,648". */
  val money: Renderer = { s =>
    if (s == null || !s.matches("\\d+(\\.\\d+)?")) s
    else {
      val parts = s.split("\\.")
      val grouped = parts(0).reverse.grouped(3).mkString(",").reverse
      "£" + grouped + (if (parts.length > 1) "." + parts(1) else "")
    }
  }

  /** Plain number → "73,648". */
  val thousands: Renderer = { s =>
    if (s == null || !s.matches("\\d+(\\.\\d+)?")) s
    else {
      val parts = s.split("\\.")
      parts(0).reverse.grouped(3).mkString(",").reverse +
        (if (parts.length > 1) "." + parts(1) else "")
    }
  }

  /** Street "51 Botanic Avenue" → "51 Botanic Av" (abbreviate suffix). */
  val abbrevStreet: Renderer = { s =>
    if (s == null) null
    else s.replace("Street", "St").replace("Road", "Rd").replace("Avenue", "Av")
      .replace("Drive", "Dr").replace("Lane", "Ln").replace("Place", "Pl")
  }

  /** Swap two adjacent characters of one word with probability `p` — cell-
    * level typos, applied after rendering (seeded, deterministic).
    */
  def typo(rnd: Random, p: Double)(s: String): String = {
    if (s == null || s.length < 4 || rnd.nextDouble() >= p) s
    else {
      val i = 1 + rnd.nextInt(s.length - 2)
      val cs = s.toCharArray
      val t = cs(i); cs(i) = cs(i + 1); cs(i + 1) = t
      new String(cs)
    }
  }
}
