package repro.lsh

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.text.Embeddings

class BandingSpec extends SparkSpec with PropSupport {

  /** Collision probability (≥1 shared bucket at any level) at per-component
    * agreement probability s.
    */
  private def collisionProbability(s: Double, levels: Seq[Banding.Level]): Double =
    1.0 - levels.map { case Banding.Level(r, b) => math.pow(1.0 - math.pow(s, r.toDouble), b.toDouble) }.product

  test("minhash levels cover 32+16+8+4 bands") {
    val sig = MinHash.signature(Seq("a", "b", "c"))
    val bs = Banding.buckets(sig, Banding.minhashLevels)
    assert(bs.size == 32 + 16 + 8 + 4)
    assert(bs.map(_._1).distinct.size == bs.size) // all band ids distinct
  }

  test("simhash levels cover 32+16 bands") {
    val v = Array.fill(repro.text.Embeddings.Dim)(1.0f)
    val bs = Banding.buckets(RandomProjection.signature(v), Banding.simhashLevels)
    assert(bs.size == 32 + 16)
  }

  test("identical signatures share every bucket") {
    val s = MinHash.signature(Seq("x", "y"))
    assert(Banding.buckets(s, Banding.minhashLevels) == Banding.buckets(s, Banding.minhashLevels))
  }

  test("sentinel (empty) signatures produce no buckets") {
    assert(Banding.buckets(MinHash.signature(Seq.empty), Banding.minhashLevels).isEmpty)
    val z = RandomProjection.signature(new Array[Float](repro.text.Embeddings.Dim))
    assert(Banding.buckets(z, Banding.simhashLevels).isEmpty)
  }

  test("property: simhash bucket keys equal those of the 0/1 bits") {
    // Signatures of vectors (the zero vector included) and arbitrary words,
    // whose sign bits and values say nothing about emptiness.
    val vectors = Gen.frequency(
      9 -> Gen.listOfN(Embeddings.Dim, Gen.choose(-3.0f, 3.0f)).map(_.toArray),
      1 -> Gen.const(new Array[Float](Embeddings.Dim)))
    val sigs = Gen.oneOf(vectors.map(RandomProjection.signature),
      Gen.listOfN(RandomProjection.NumBits / 64, Gen.long).map(_.toArray))
    forAllGen(sigs, 500) { sig =>
      val want = SimhashReference.buckets(SimhashReference.unpack(sig), Banding.simhashLevels)
      assert(Banding.buckets(sig, Banding.simhashLevels) == want, sig.mkString(","))
      assert(want.size == (if (sig.isEmpty) 0 else 32 + 16))
    }
  }

  test("a packed signature whose first word is negative gets all 48 buckets") {
    Seq(Array(-1L, 0x5555L, 0L, 42L), Array(Long.MinValue, -7L, Long.MaxValue, 1L),
      Array(Long.MaxValue, 0L, 0L, 0L)).foreach { sig =>
      val bs = Banding.buckets(sig, Banding.simhashLevels)
      assert(bs.size == 32 + 16)
      assert(bs == SimhashReference.buckets(SimhashReference.unpack(sig), Banding.simhashLevels))
    }
  }

  test("band ids never collide across levels") {
    val s = MinHash.signature(Seq("p", "q"))
    val ids = Banding.buckets(s, Banding.minhashLevels).map(_._1)
    val perLevel = ids.groupBy(_ / 1000)
    assert(perLevel.keySet == Set(0, 1, 2, 3))
  }

  test("high-similarity sets collide in at least one bucket") {
    val shared = (1 to 90).map(i => s"s$i")
    val a = MinHash.signature(shared ++ Seq("a1"))
    val b = MinHash.signature(shared ++ Seq("b1"))
    val ba = Banding.buckets(a, Banding.minhashLevels).toSet
    val bb = Banding.buckets(b, Banding.minhashLevels).toSet
    assert((ba intersect bb).nonEmpty)
  }

  test("moderate similarity (J≈0.33) still collides thanks to shallow levels") {
    // 50 shared of 150 union → J = 1/3; single (b=32,r=8) banding collides
    // with prob ~4%, the multi-level forest emulation with ~97%.
    val collisions = (1 to 20).count { trial =>
      val shared = (1 to 50).map(i => s"s${trial}_$i")
      val a = MinHash.signature(shared ++ (1 to 50).map(i => s"a${trial}_$i"))
      val b = MinHash.signature(shared ++ (1 to 50).map(i => s"b${trial}_$i"))
      (Banding.buckets(a, Banding.minhashLevels).toSet intersect
        Banding.buckets(b, Banding.minhashLevels).toSet).nonEmpty
    }
    assert(collisions >= 15, s"collided $collisions/20")
  }

  test("disjoint sets rarely collide") {
    val collisions = (1 to 20).count { trial =>
      val a = MinHash.signature((1 to 40).map(i => s"a${trial}_$i"))
      val b = MinHash.signature((1 to 40).map(i => s"b${trial}_$i"))
      (Banding.buckets(a, Banding.minhashLevels).toSet intersect
        Banding.buckets(b, Banding.minhashLevels).toSet).nonEmpty
    }
    assert(collisions <= 4, s"collided $collisions/20")
  }

  test("theoretical collision probability is monotone in similarity") {
    val ps = Seq(0.1, 0.3, 0.5, 0.7, 0.9)
      .map(s => collisionProbability(s, Banding.minhashLevels))
    assert(ps == ps.sorted)
    assert(ps.last > 0.999)
  }

  test("collision probability at τ=0.7 is high for minhash levels") {
    assert(collisionProbability(0.7, Banding.minhashLevels) > 0.95)
  }
}
