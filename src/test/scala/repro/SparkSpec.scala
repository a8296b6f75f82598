package repro

import java.util.concurrent.{CountDownLatch, TimeUnit}
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Spark jobs `body` starts on this thread. Listener events arrive in
    * order: once a marker job is seen, every job `body` started has been
    * seen too.
    */
  def jobsStartedBy(body: => Unit): Int = {
    val sc = spark.sparkContext
    val jobs = new AtomicInteger()
    val marker = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))) match {
          case Some("under-test") => jobs.incrementAndGet()
          case Some("under-test-marker") => marker.countDown()
          case _ =>
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("under-test", "jobs under test")
      body
      sc.setJobGroup("under-test-marker", "listener marker")
      sc.parallelize(Seq(1), 1).count()
      assert(marker.await(60, TimeUnit.SECONDS), "marker job never reached the listener")
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
    jobs.get
  }

  /** Ids of the RDDs `body` leaves persisted: persisted after it and not
    * before.
    */
  def persistedBy(body: => Any): Set[Int] = {
    val sc = spark.sparkContext
    val before = sc.getPersistentRDDs.keySet
    body
    sc.getPersistentRDDs.keySet.diff(before).toSet
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
