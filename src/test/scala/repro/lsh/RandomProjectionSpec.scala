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
    assert(s.length == 256)
    assert(s.forall(b => b == 0L || b == 1L))
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

  test("zero vector yields sentinel signature with zero similarity") {
    val z = RandomProjection.signature(new Array[Float](Embeddings.Dim))
    assert(z.forall(_ == -1L))
    assert(RandomProjection.estimateCosine(z, RandomProjection.signature(vec(9))) == 0.0)
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

  test("property: the packed estimate and distance equal those of the 0/1 bits") {
    // b flips each bit of a with probability p, so agreements span 0..256.
    val pairs = for {
      a <- Gen.listOfN(RandomProjection.NumBits, Gen.oneOf(0L, 1L))
      p <- Gen.oneOf(Gen.const(0.0), Gen.const(1.0), Gen.choose(0.0, 1.0))
      flips <- Gen.listOfN(RandomProjection.NumBits, Gen.prob(p))
    } yield (a.toArray, a.zip(flips).map { case (bit, f) => if (f) 1L - bit else bit }.toArray)
    def distance(c: Double) = math.min(1.0, math.max(0.0, 1.0 - c))
    forAllGen(pairs, 500) { case (a, b) =>
      val want = RandomProjection.estimateCosine(a, b)
      val got = RandomProjection.estimateCosinePacked(RandomProjection.pack(a), RandomProjection.pack(b))
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want), s"$got vs $want")
      assert(distance(got) == distance(want))
    }
  }

  test("pack holds 256 bits in 4 longs; the sentinel packs to nothing and estimates 0") {
    val s = RandomProjection.signature(vec(13))
    val packed = RandomProjection.pack(s)
    assert(packed.length == 4)
    assert((0 until 256).forall(i => ((packed(i / 64) >>> (i % 64)) & 1L) == s(i)))
    val z = RandomProjection.pack(RandomProjection.signature(new Array[Float](Embeddings.Dim)))
    assert(z.isEmpty)
    assert(RandomProjection.estimateCosinePacked(z, packed) == 0.0)
  }
}
