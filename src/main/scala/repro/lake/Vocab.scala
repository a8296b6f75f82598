package repro.lake

import java.util.Locale
import scala.util.Random

/** Deterministic vocabularies and canonical-value generators for the lake
  * generators. Canonical formats are fixed here; per-table *renderers*
  * (format variants, casing, typos) live in [[Dirt]] so the Synthetic lake
  * can stay clean while the Real lakes get dirty — the contrast the paper's
  * Experiments 2 vs 3 rely on.
  */
object Vocab {

  val cities: IndexedSeq[String] = Vector(
    "London", "Manchester", "Birmingham", "Leeds", "Glasgow", "Sheffield",
    "Bradford", "Liverpool", "Edinburgh", "Bristol", "Cardiff", "Belfast",
    "Leicester", "Coventry", "Nottingham", "Newcastle", "Sunderland",
    "Brighton", "Hull", "Plymouth", "Stoke", "Wolverhampton", "Derby",
    "Swansea", "Southampton", "Salford", "Aberdeen", "Westminster",
    "Portsmouth", "York", "Peterborough", "Dundee", "Lancaster", "Oxford",
    "Norwich", "Cambridge", "Exeter", "Gloucester", "Bath", "Preston",
    "Bolton", "Stockport", "Rochdale", "Oldham", "Wigan", "Warrington",
  )

  val counties: IndexedSeq[String] = Vector(
    "Greater Manchester", "Merseyside", "West Yorkshire", "South Yorkshire",
    "Tyne and Wear", "West Midlands", "Lancashire", "Cheshire", "Cumbria",
    "Durham", "Kent", "Essex", "Surrey", "Hampshire", "Devon", "Cornwall",
  )

  val firstNames: IndexedSeq[String] = Vector(
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael",
    "Linda", "David", "Elizabeth", "William", "Barbara", "Richard", "Susan",
    "Joseph", "Jessica", "Thomas", "Sarah", "Charles", "Karen", "Emma",
    "Oliver", "Amelia", "George", "Isla", "Harry", "Ava", "Noah", "Grace",
    "Jack", "Sophia", "Leo", "Lily", "Arthur", "Freya", "Muhammad", "Ivy",
  )

  val lastNames: IndexedSeq[String] = Vector(
    "Smith", "Jones", "Taylor", "Brown", "Williams", "Wilson", "Johnson",
    "Davies", "Robinson", "Wright", "Thompson", "Evans", "Walker", "White",
    "Roberts", "Green", "Hall", "Wood", "Jackson", "Clarke", "Patel",
    "Khan", "Lewis", "James", "Phillips", "Mason", "Mitchell", "Rose",
    "Davis", "Rodgers", "Hunt", "Murray", "Graham", "Watson", "Chapman",
    "Hussain", "Marshall", "Foster", "Reid", "Pearson",
  )

  val streetNames: IndexedSeq[String] = Vector(
    "Church", "Station", "Victoria", "Green", "Park", "Mill", "Queen",
    "King", "Market", "Chapel", "Bridge", "Oxford", "Portland", "Mirabel",
    "Botanic", "Rupert", "High", "North", "South", "West", "East", "Spring",
    "Grove", "Albert", "Windsor", "Richmond", "Kensington", "Stanley",
    "Clarendon", "Devonshire", "Hanover", "Cavendish",
  )

  val streetSuffixes: IndexedSeq[String] = Vector(
    "Street", "Road", "Avenue", "Lane", "Drive", "Close", "Way", "Place",
  )

  val practiceStyles: IndexedSeq[String] = Vector(
    "Medical Practice", "Surgery", "Health Centre", "Medical Centre", "Clinic",
  )

  val companyCores: IndexedSeq[String] = Vector(
    "Northern", "Apex", "Summit", "Pioneer", "Sterling", "Crescent", "Anchor",
    "Beacon", "Cobalt", "Granite", "Harbour", "Ivory", "Juniper", "Keystone",
    "Lunar", "Meridian", "Nimbus", "Orchard", "Pinnacle", "Quartz", "Regent",
    "Solstice", "Trident", "Umber", "Vertex", "Willow", "Zenith", "Atlas",
  )
  val companyKinds: IndexedSeq[String] = Vector(
    "Engineering", "Logistics", "Consulting", "Foods", "Textiles", "Media",
    "Energy", "Analytics", "Construction", "Retail",
  )
  val companySuffixes: IndexedSeq[String] = Vector("Ltd", "PLC", "Group", "Holdings", "LLP")

  val sectors: IndexedSeq[String] = Vector(
    "Manufacturing", "Retail", "Healthcare", "Education", "Transport",
    "Construction", "Hospitality", "Finance", "Agriculture", "Technology",
  )

  val schoolKinds: IndexedSeq[String] = Vector(
    "Primary School", "High School", "Academy", "Grammar School", "College",
  )

  val crimeCategories: IndexedSeq[String] = Vector(
    "Burglary", "Vehicle Crime", "Anti Social Behaviour", "Shoplifting",
    "Criminal Damage", "Public Order", "Drugs", "Robbery",
  )

  val operators: IndexedSeq[String] = Vector(
    "Stagecoach", "First Bus", "Arriva", "Go North", "Metroline",
    "Transdev", "Diamond", "Rosso",
  )

  private def pick[T](rnd: Random, xs: IndexedSeq[T]): T = xs(rnd.nextInt(xs.size))

  // ---- canonical value generators -----------------------------------------

  def personName(rnd: Random): String = s"${pick(rnd, firstNames)} ${pick(rnd, lastNames)}"

  def practiceName(rnd: Random): String =
    if (rnd.nextDouble() < 0.3) s"Dr ${pick(rnd, firstNames).head} ${pick(rnd, lastNames)}"
    else s"${pick(rnd, lastNames)} ${pick(rnd, practiceStyles)}"

  def companyName(rnd: Random): String =
    s"${pick(rnd, companyCores)} ${pick(rnd, companyKinds)} ${pick(rnd, companySuffixes)}"

  def schoolName(rnd: Random): String =
    s"${pick(rnd, if (rnd.nextBoolean()) streetNames else lastNames)} ${pick(rnd, schoolKinds)}"

  def hospitalName(rnd: Random): String =
    s"${pick(rnd, cities)} ${if (rnd.nextBoolean()) "General Hospital" else "Royal Infirmary"}"

  def libraryName(rnd: Random): String = s"${pick(rnd, streetNames)} Library"

  def developmentName(rnd: Random): String =
    s"${pick(rnd, streetNames)} ${if (rnd.nextBoolean()) "Gardens" else "Court"}"

  def routeName(rnd: Random): String =
    s"Route ${rnd.nextInt(90) + 10} ${pick(rnd, cities)} ${pick(rnd, cities)}"

  def areaName(rnd: Random): String = s"${pick(rnd, cities)} ${pick(rnd, Vector("Central", "North", "South", "East", "West"))}"

  def streetAddress(rnd: Random): String =
    s"${rnd.nextInt(180) + 1} ${pick(rnd, streetNames)} ${pick(rnd, streetSuffixes)}"

  def city(rnd: Random): String = pick(rnd, cities)
  def county(rnd: Random): String = pick(rnd, counties)

  /** Canonical UK-style postcode "M13 9PL". */
  def postcode(rnd: Random): String = {
    val letters = "ABCDEFGHJKLMNPRSTUWYZ"
    def l(): Char = letters.charAt(rnd.nextInt(letters.length))
    val area = if (rnd.nextBoolean()) s"${l()}" else s"${l()}${l()}"
    s"$area${rnd.nextInt(20) + 1} ${rnd.nextInt(10)}${l()}${l()}"
  }

  /** Canonical ISO date in 1995–2023. */
  def dateIso(rnd: Random): String =
    f"${1995 + rnd.nextInt(29)}%04d-${1 + rnd.nextInt(12)}%02d-${1 + rnd.nextInt(28)}%02d"

  def phone(rnd: Random): String = f"0161 ${rnd.nextInt(1000)}%03d ${rnd.nextInt(10000)}%04d"

  def email(rnd: Random): String =
    s"${pick(rnd, firstNames).toLowerCase(Locale.ROOT)}.${pick(rnd, lastNames).toLowerCase(Locale.ROOT)}@${pick(rnd, Vector("nhs.uk", "gov.uk", "council.uk", "mail.com"))}"

  def url(rnd: Random): String =
    s"https://www.${pick(rnd, companyCores).toLowerCase(Locale.ROOT)}${pick(rnd, Vector(".co.uk", ".org.uk", ".com"))}/home"

  def openingHours(rnd: Random): String =
    f"${6 + rnd.nextInt(4)}%02d:${if (rnd.nextBoolean()) "00" else "30"}-${16 + rnd.nextInt(6)}%02d:${if (rnd.nextBoolean()) "00" else "30"}"

  def year(rnd: Random): String = (2000 + rnd.nextInt(24)).toString

  /** Gaussian numeric, truncated at ≥ lo, canonical plain rendering. */
  def gaussian(rnd: Random, mu: Double, sigma: Double, lo: Double = 0.0, decimals: Int = 0): String = {
    val v = math.max(lo, mu + sigma * rnd.nextGaussian())
    if (decimals == 0) math.round(v).toString
    else BigDecimal(v).setScale(decimals, BigDecimal.RoundingMode.HALF_UP).toString
  }
}
