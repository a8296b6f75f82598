package repro.eval

import java.nio.file.{Files, Path}
import repro.SparkSpec

class HarnessSpec extends SparkSpec {

  private def partFile(dir: Path): Array[Byte] = {
    val parts = Files.list(dir)
    try {
      val ps = parts.filter(_.getFileName.toString.endsWith(".parquet")).toArray
      assert(ps.length == 1, s"${ps.length} Parquet files in $dir")
      Files.readAllBytes(ps(0).asInstanceOf[Path])
    } finally parts.close()
  }

  test("writeParquet writes the same bytes for the same rows, cached or repartitioned") {
    import spark.implicits._
    val df = (0 until 600).map(i => (s"t${i % 37}#${i % 5}", i % 11, Array(i * 31L % 97, i.toLong), i * 0.25))
      .toDF("attr", "col_idx", "sig", "sim")
    val cached = df.repartition(4).cache()
    val shuffled = df.repartition(7, $"sim")
    // The two frames hand the same rows over in different orders.
    assert(cached.collect().map(_.toString).toSeq != shuffled.collect().map(_.toString).toSeq)
    val dir = Files.createTempDirectory("write-parquet")
    Harness.writeParquet(cached, s"$dir/cached")
    Harness.writeParquet(shuffled, s"$dir/shuffled")
    cached.unpersist()
    assert(partFile(dir.resolve("cached")).sameElements(partFile(dir.resolve("shuffled"))))
  }
}
