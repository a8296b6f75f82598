package repro.lsh

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec}
import repro.text.Embeddings

/** The dense bucket index against [[LshReference]]'s grouping of the same
  * signatures' (band id, bucket hash) keys.
  */
class BucketIndexSpec extends SparkSpec with PropSupport {

  /** Group 0 holds MinHash signatures, group 1 packed simhash ones. */
  private val levels = BucketIndex.levels(Seq("minhash", "simhash"), "simhash")

  /** MinHash signatures of token sets over a small vocabulary, so that many
    * share buckets at some level; the empty set gives the sentinel, and some
    * signatures are empty arrays.
    */
  private val minhash: Gen[Array[Long]] = Gen.frequency(
    8 -> Gen.choose(0, 6).flatMap(k => Gen.pick(k, ('a' to 'h').map(_.toString))).map(ts => MinHash.signature(ts.toSeq)),
    1 -> Gen.const(Array.emptyLongArray))

  private val bases: IndexedSeq[Array[Float]] = {
    val rnd = new scala.util.Random(17)
    IndexedSeq.fill(3)(Array.fill(Embeddings.Dim)(rnd.nextGaussian().toFloat))
  }

  /** Packed signatures of small integer mixes of three vectors (the zero
    * vector, with the empty signature, among them) and of arbitrary words.
    */
  private val simhash: Gen[Array[Long]] = Gen.frequency(
    8 -> Gen.listOfN(bases.size, Gen.choose(0, 2)).map { ws =>
      RandomProjection.signature(Array.tabulate(Embeddings.Dim)(j => bases.indices.map(i => ws(i) * bases(i)(j)).sum))
    },
    1 -> Gen.listOfN(RandomProjection.NumBits / 64, Gen.long).map(_.toArray))

  private val item: Gen[IndexedSeq[Array[Long]]] = for (m <- minhash; s <- simhash) yield IndexedSeq(m, s)

  private val lakes: Gen[(IndexedSeq[IndexedSeq[Array[Long]]], IndexedSeq[Array[Long]])] =
    for (n <- Gen.choose(0, 40); items <- Gen.listOfN(n, item); foreign <- item) yield (items.toIndexedSeq, foreign)

  test("property: the dense index probes, resolves and walks as the key grouping does") {
    forAllGen(lakes, 200) { case (items, foreign) =>
      val idx = BucketIndex(levels, items.size)((i, g) => items(i)(g))
      val seen = new Array[Int](items.size)
      var mark = 0
      levels.indices.foreach { g =>
        val sigs = items.map(_(g))
        val held = LshReference.bucketMap(sigs, levels(g))
        items.indices.foreach { i =>
          val keys = Banding.buckets(sigs(i), levels(g))
          val own = idx.bucketsOf(i)(g)
          assert(own.map(b => idx.probe(b).toSeq).toSeq == keys.map(held), s"item $i, group $g: postings")
          assert(idx.resolve(g, sigs(i)).sameElements(own), s"item $i, group $g: resolved")
          val met = Seq.newBuilder[Int]
          mark += 1
          idx.candidates(own, seen, mark)(met += _)
          assert(met.result() == keys.flatMap(held).distinct, s"item $i, group $g: candidates")
          if (sigs(i).isEmpty || (g == 0 && sigs(i)(0) == MinHash.EmptySentinel)) assert(own.isEmpty)
        }
        val keys = Banding.buckets(foreign(g), levels(g))
        val resolved = idx.resolve(g, foreign(g))
        assert(resolved.map(b => idx.probe(b).toSeq).toSeq == keys.flatMap(held.get), s"foreign, group $g")
        if (!keys.exists(held.contains)) assert(resolved.isEmpty)
      }
      val ids = items.indices.flatMap(i => idx.bucketsOf(i).toSeq.flatMap(_.toSeq))
      assert(ids.distinct == ids.distinct.indices, "bucket ids not given in build order")
    }
  }

  test("a signature sharing no bucket with the index resolves to nothing") {
    val items = IndexedSeq(Seq("a", "b", "c"), Seq("c", "d")).map(ts => IndexedSeq(MinHash.signature(ts)))
    val idx = BucketIndex(levels.take(1), items.size)((i, g) => items(i)(g))
    val other = MinHash.signature(Seq("x", "y", "z"))
    assert(Banding.buckets(other, Banding.minhashLevels).forall(k =>
      !items.exists(s => Banding.buckets(s(0), Banding.minhashLevels).contains(k))))
    assert(idx.resolve(0, other).isEmpty)
    assert(idx.resolve(0, items(0)(0)).sameElements(idx.bucketsOf(0)(0)))
  }
}
