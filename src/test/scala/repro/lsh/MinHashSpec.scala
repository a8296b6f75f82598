package repro.lsh

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}

class MinHashSpec extends SparkSpec with PropSupport {

  /** The token-outer loop `signature` replaced, with the same hash family,
    * kept as its specification.
    */
  private object Reference {
    private val Prime = (1L << 61) - 1
    private val (as, bs) = {
      val rnd = new scala.util.Random(0xD31L)
      val a = Array.fill(MinHash.NumHashes)(math.abs(rnd.nextLong()) % (Prime - 1) + 1)
      val b = Array.fill(MinHash.NumHashes)(math.abs(rnd.nextLong()) % Prime)
      (a, b)
    }

    private def mulMod(a: Long, b: Long): Long =
      BigInt(a).*(BigInt(b)).mod(BigInt(Prime)).toLong

    def signature(tokens: Iterable[String]): Array[Long] = {
      val sig = Array.fill(MinHash.NumHashes)(MinHash.EmptySentinel)
      tokens.foreach { t =>
        val x = MinHash.tokenHash(t)
        (0 until MinHash.NumHashes).foreach { i =>
          val hv = (mulMod(as(i), x) + bs(i)) % Prime
          if (hv < sig(i)) sig(i) = hv
        }
      }
      sig
    }
  }

  private def exactJaccard(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty && b.isEmpty) 0.0 else (a intersect b).size.toDouble / (a union b).size

  test("property: signature equals the token-outer reference") {
    forAllGen(Gen.resize(20, Gen.listOf(textValues.map(v => if (v == null) "" else v))), 50) { ts =>
      assert(MinHash.signature(ts).toSeq == Reference.signature(ts).toSeq, ts)
      assert(MinHash.signature(ts.toSet).toSeq == Reference.signature(ts).toSeq, ts)
    }
  }

  test("property: signature equals MinHashReference's hash-outer loop, on token sets and on hashes near p") {
    val tokens = Gen.resize(30, Gen.listOf(Gen.frequency(4 -> textValues.map(v => if (v == null) "" else v),
      1 -> Gen.oneOf("a", "b", "street"))))
    forAllGen(tokens, minSuccessful = 100) { ts =>
      assert(MinHash.signature(ts).toSeq == MinHashReference.signature(ts).toSeq, ts)
    }
    val p = (1L << 61) - 1
    val hash = Gen.frequency(2 -> Gen.choose(0L, p - 1), 2 -> Gen.choose(p - 64, p - 1), 1 -> Gen.choose(0L, 64L))
    forAllGen(Gen.resize(12, Gen.listOf(hash)).map(_.toArray), minSuccessful = 200) { xs =>
      val sig = Array.fill(MinHash.NumHashes)(MinHash.EmptySentinel)
      (xs ++ xs.take(2)).foreach(MinHash.include(sig, _))
      assert(sig.toSeq == MinHashReference.ofHashes(xs).toSeq, xs.mkString(","))
    }
    assert(MinHash.signature(Nil).toSeq == MinHashReference.ofHashes(Array.emptyLongArray).toSeq)
  }

  test("signature has 256 components") {
    assert(MinHash.signature(Seq("a", "b")).length == 256)
  }

  test("signature is deterministic") {
    val s1 = MinHash.signature(Seq("portland", "street", "m1"))
    val s2 = MinHash.signature(Seq("m1", "portland", "street")) // order-insensitive
    assert(s1.sameElements(s2))
  }

  test("identical sets have identical signatures (estimate 1.0)") {
    val s = MinHash.signature(Seq("x", "y", "z"))
    assert(MinHash.estimateJaccard(s, s) == 1.0)
  }

  test("disjoint sets have near-zero estimate") {
    val a = MinHash.signature((1 to 50).map(i => s"a$i"))
    val b = MinHash.signature((1 to 50).map(i => s"b$i"))
    assert(MinHash.estimateJaccard(a, b) < 0.05)
  }

  test("empty set yields the sentinel signature") {
    val s = MinHash.signature(Seq.empty)
    assert(s.forall(_ == MinHash.EmptySentinel))
  }

  test("sentinel signatures never report similarity") {
    val e = MinHash.signature(Seq.empty)
    assert(MinHash.estimateJaccard(e, e) == 0.0)
  }

  test("estimate tracks exact Jaccard within ±0.1 at J=0.5") {
    val shared = (1 to 60).map(i => s"s$i")
    val a = shared ++ (1 to 30).map(i => s"a$i")
    val b = shared ++ (1 to 30).map(i => s"b$i")
    val exact = exactJaccard(a.toSet, b.toSet) // 60/120 = 0.5
    val est = MinHash.estimateJaccard(MinHash.signature(a), MinHash.signature(b))
    assert(math.abs(est - exact) < 0.1, s"exact=$exact est=$est")
  }

  test("estimate tracks exact Jaccard within ±0.1 across overlap levels") {
    for (sharedN <- Seq(10, 25, 50, 75, 90)) {
      val shared = (1 to sharedN).map(i => s"s$i")
      val a = shared ++ (1 to (100 - sharedN)).map(i => s"a$i")
      val b = shared ++ (1 to (100 - sharedN)).map(i => s"b$i")
      val exact = exactJaccard(a.toSet, b.toSet)
      val est = MinHash.estimateJaccard(MinHash.signature(a), MinHash.signature(b))
      assert(math.abs(est - exact) < 0.1, s"shared=$sharedN exact=$exact est=$est")
    }
  }

  test("subset relation yields estimate near |A|/|B|") {
    val b = (1 to 100).map(i => s"t$i")
    val a = b.take(40)
    val est = MinHash.estimateJaccard(MinHash.signature(a), MinHash.signature(b))
    assert(math.abs(est - 0.4) < 0.12, s"est=$est")
  }

  test("tokenHash is non-negative and below the prime") {
    forAllGen(Gen.asciiPrintableStr) { s =>
      val h = MinHash.tokenHash(s)
      assert(h >= 0 && h < (1L << 61) - 1)
    }
  }

  test("tokenHash distinguishes different tokens (no trivial collisions)") {
    val hs = (1 to 10000).map(i => MinHash.tokenHash(s"tok$i")).toSet
    assert(hs.size == 10000)
  }

  test("property: signature components are valid hash values") {
    forAllGen(Gen.nonEmptyListOf(Gen.alphaNumStr.suchThat(_.nonEmpty)), minSuccessful = 30) { ts =>
      val sig = MinHash.signature(ts)
      sig.foreach(v => assert(v >= 0 && v < (1L << 61) - 1))
    }
  }

  test("property: estimate is symmetric") {
    forAllGen(Gen.zip(Gen.listOf(Gen.alphaNumStr), Gen.listOf(Gen.alphaNumStr)), minSuccessful = 30) {
      case (xs, ys) =>
        val a = MinHash.signature(xs.filter(_.nonEmpty))
        val b = MinHash.signature(ys.filter(_.nonEmpty))
        assert(MinHash.estimateJaccard(a, b) == MinHash.estimateJaccard(b, a))
    }
  }

  test("property: estimate bounded in [0,1]") {
    forAllGen(Gen.zip(Gen.listOf(Gen.alphaNumStr), Gen.listOf(Gen.alphaNumStr)), minSuccessful = 30) {
      case (xs, ys) =>
        val e = MinHash.estimateJaccard(
          MinHash.signature(xs.filter(_.nonEmpty)), MinHash.signature(ys.filter(_.nonEmpty)))
        assert(e >= 0.0 && e <= 1.0)
    }
  }

  test("single-element sets: equal iff same element") {
    val a = MinHash.signature(Seq("only"))
    val b = MinHash.signature(Seq("only"))
    val c = MinHash.signature(Seq("other"))
    assert(MinHash.estimateJaccard(a, b) == 1.0)
    assert(MinHash.estimateJaccard(a, c) < 0.05)
  }
}
