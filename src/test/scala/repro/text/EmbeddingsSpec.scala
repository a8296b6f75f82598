package repro.text

import repro.SparkSpec

class EmbeddingsSpec extends SparkSpec {

  test("base vectors are ±1 of dimension Dim") {
    val v = Embeddings.baseVector("street")
    assert(v.length == Embeddings.Dim)
    assert(v.forall(x => x == 1.0f || x == -1.0f))
  }

  test("base vectors are deterministic per token") {
    assert(Embeddings.baseVector("road").sameElements(Embeddings.baseVector("road")))
  }

  test("different tokens get different base vectors") {
    assert(!Embeddings.baseVector("road").sameElements(Embeddings.baseVector("street")))
  }

  test("base vectors of distinct tokens are near-orthogonal") {
    val cos = CosineReference.cosine(Embeddings.baseVector("alpha"), Embeddings.baseVector("beta"))
    assert(math.abs(cos) < 0.4, s"cos=$cos")
  }

  test("add accumulates in place") {
    val acc = new Array[Float](Embeddings.Dim)
    Embeddings.add(acc, Array.fill(Embeddings.Dim)(2.0f))
    Embeddings.add(acc, Array.fill(Embeddings.Dim)(3.0f))
    assert(acc.forall(_ == 5.0f))
  }

  test("mean of vectors") {
    val m = Embeddings.mean(Seq(Array.fill(Embeddings.Dim)(2.0f), Array.fill(Embeddings.Dim)(4.0f)))
    assert(m.forall(_ == 3.0f))
  }

  test("mean of empty collection is the zero vector") {
    assert(Embeddings.mean(Seq.empty).forall(_ == 0.0f))
  }

  test("cosine of identical vectors is 1") {
    val v = Embeddings.baseVector("x")
    assert(math.abs(CosineReference.cosine(v, v) - 1.0) < 1e-9)
  }

  test("cosine with zero vector is 0") {
    assert(CosineReference.cosine(Embeddings.baseVector("x"), new Array[Float](Embeddings.Dim)) == 0.0)
  }

  test("distributional property: tokens sharing context get similar sums") {
    // street & road each co-occur with the same context tokens → their
    // context sums (the random-indexing embedding) are close in cosine.
    val ctx = Seq("church", "station", "victoria", "green", "park", "mill")
    def contextVec(extra: Seq[String]): Array[Float] = {
      val acc = new Array[Float](Embeddings.Dim)
      (ctx ++ extra).foreach(t => Embeddings.add(acc, Embeddings.baseVector(t)))
      acc
    }
    val street = contextVec(Seq("street"))
    val road = contextVec(Seq("road"))
    val unrelated = {
      val acc = new Array[Float](Embeddings.Dim)
      Seq("revenue", "turnover", "plc", "holdings", "sector", "ltd", "finance")
        .foreach(t => Embeddings.add(acc, Embeddings.baseVector(t)))
      acc
    }
    assert(CosineReference.cosine(street, road) > 0.8)
    assert(CosineReference.cosine(street, unrelated) < 0.5)
  }

  test("norm of a base vector is sqrt(Dim)") {
    assert(math.abs(Embeddings.norm(Embeddings.baseVector("t")) - math.sqrt(Embeddings.Dim)) < 1e-6)
  }
}
