package repro.text

/** Exact cosine similarity of two embedding vectors: the reference that
  * the random-projection estimate and the trained embeddings are checked
  * against.
  */
object CosineReference {

  def cosine(a: Array[Float], b: Array[Float]): Double = {
    val na = Embeddings.norm(a); val nb = Embeddings.norm(b)
    if (na == 0 || nb == 0) return 0.0
    var dot = 0.0; var i = 0
    while (i < a.length) { dot += a(i).toDouble * b(i); i += 1 }
    dot / (na * nb)
  }
}
