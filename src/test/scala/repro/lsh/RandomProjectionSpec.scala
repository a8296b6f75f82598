package repro.lsh

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.text.{CosineReference, Embeddings}

class RandomProjectionSpec extends SparkSpec with PropSupport {

  private def vec(seed: Int): Array[Float] = {
    val rnd = new scala.util.Random(seed)
    Array.fill(Embeddings.Dim)(rnd.nextGaussian().toFloat)
  }

  test("signature has 256 bits of 0/1") {
    val s = RandomProjection.signature(vec(1))
    assert(s.length == 4) // packed 64 bits to a word
    assert(s.map(java.lang.Long.bitCount).sum == SimhashReference.signature(vec(1)).sum)
  }

  test("signature is deterministic") {
    assert(RandomProjection.signature(vec(2)).sameElements(RandomProjection.signature(vec(2))))
  }

  test("identical vectors estimate cosine 1") {
    val s = RandomProjection.signature(vec(3))
    assert(math.abs(RandomProjection.estimateCosine(s, s) - 1.0) < 1e-9)
  }

  test("opposite vectors estimate cosine -1") {
    val v = vec(4)
    val neg = v.map(x => -x)
    val e = RandomProjection.estimateCosine(RandomProjection.signature(v), RandomProjection.signature(neg))
    assert(e < -0.95, s"e=$e")
  }

  test("independent random vectors estimate near 0 on average") {
    // A single pair of random 64-dim vectors has cosine stddev ≈ 1/8, so
    // test the mean absolute estimate over several pairs instead.
    val es = (0 until 10).map { i =>
      math.abs(RandomProjection.estimateCosine(
        RandomProjection.signature(vec(100 + 2 * i)), RandomProjection.signature(vec(101 + 2 * i))))
    }
    assert(es.sum / es.size < 0.2, s"mean |e| = ${es.sum / es.size}")
  }

  test("estimate tracks true cosine for correlated vectors") {
    val a = vec(7)
    val rnd = new scala.util.Random(8)
    // b = a + noise → high but not perfect cosine.
    val b = a.map(x => x + 0.5f * rnd.nextGaussian().toFloat)
    val truth = CosineReference.cosine(a, b)
    val est = RandomProjection.estimateCosine(RandomProjection.signature(a), RandomProjection.signature(b))
    assert(math.abs(truth - est) < 0.15, s"truth=$truth est=$est")
  }

  test("zero vector yields the empty signature with zero similarity") {
    val z = RandomProjection.signature(new Array[Float](Embeddings.Dim))
    assert(z.isEmpty)
    assert(RandomProjection.estimateCosine(z, RandomProjection.signature(vec(9))) == 0.0)
    assert(RandomProjection.estimateCosine(RandomProjection.signature(vec(9)), z) == 0.0)
  }

  test("estimate is symmetric") {
    val a = RandomProjection.signature(vec(10))
    val b = RandomProjection.signature(vec(11))
    assert(RandomProjection.estimateCosine(a, b) == RandomProjection.estimateCosine(b, a))
  }

  test("scaling a vector does not change its signature") {
    val v = vec(12)
    val scaled = v.map(_ * 7.5f)
    assert(RandomProjection.signature(v).sameElements(RandomProjection.signature(scaled)))
  }

  /** Vectors from the generated lakes' kinds: Gaussian, small sums of ±1
    * (which can sit on a hyperplane) and, now and then, the zero vector.
    */
  private val vectors: Gen[Array[Float]] = Gen.frequency(
    6 -> Gen.listOfN(Embeddings.Dim, Gen.choose(-3.0f, 3.0f)).map(_.toArray),
    3 -> Gen.listOfN(Embeddings.Dim, Gen.choose(-2, 2).map(_.toFloat)).map(_.toArray),
    1 -> Gen.const(new Array[Float](Embeddings.Dim)))

  test("property: signature bits equal those of the 0/1 reference") {
    forAllGen(vectors, 500) { v =>
      val got = RandomProjection.signature(v)
      assert(SimhashReference.unpack(got).sameElements(SimhashReference.signature(v)), v.mkString(","))
      assert(got.isEmpty == (Embeddings.norm(v) == 0))
    }
  }

  test("property: the packed estimate and distance equal those of the 0/1 bits") {
    // b flips each bit of a with probability p, so agreements span 0..256;
    // a pair of vectors adds the empty signature and signatures as extracted.
    val words = Gen.listOfN(RandomProjection.NumBits / 64, Gen.long).map(_.toArray)
    val flipped = for {
      a <- words
      p <- Gen.oneOf(Gen.const(0.0), Gen.const(1.0), Gen.choose(0.0, 1.0))
      flips <- Gen.listOfN(RandomProjection.NumBits, Gen.prob(p))
    } yield (a, Array.tabulate(a.length)(w => a(w) ^ (0 until 64).foldLeft(0L)((m, i) =>
      if (flips(64 * w + i)) m | (1L << i) else m)))
    val pairs = Gen.frequency(3 -> flipped,
      1 -> Gen.zip(vectors, vectors).map { case (x, y) => (RandomProjection.signature(x), RandomProjection.signature(y)) })
    def distance(c: Double) = math.min(1.0, math.max(0.0, 1.0 - c))
    forAllGen(pairs, 500) { case (a, b) =>
      val got = RandomProjection.estimateCosine(a, b)
      val want = SimhashReference.estimateCosine(SimhashReference.unpack(a), SimhashReference.unpack(b))
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want), s"$got vs $want")
      assert(distance(got) == distance(want))
    }
  }
}
