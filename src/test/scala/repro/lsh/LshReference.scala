package repro.lsh

/** The bucket grouping that the dense [[BucketIndex]] replaced, kept as its
  * specification: (band id, bucket hash) keys of [[Banding.buckets]] mapped
  * to their members.
  */
object LshReference {

  /** (band id, bucket hash) → the ascending positions in `sigs` of the
    * signatures holding that bucket under `levels`.
    */
  def bucketMap(sigs: IndexedSeq[Array[Long]], levels: Seq[Banding.Level]): Map[(Int, Long), IndexedSeq[Int]] =
    sigs.indices.flatMap(i => Banding.buckets(sigs(i), levels).map(_ -> i)).groupMap(_._1)(_._2)
}
