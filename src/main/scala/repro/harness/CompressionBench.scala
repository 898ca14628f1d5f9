package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.{DatasetSpec, FcDatasets}
import repro.gpusim.GpuModel

/** One (dataset x codec) measurement — the row Tables 4/5/6 aggregate over.
  *
  * CPU rows carry measured wall-clock seconds; GPU rows carry cost-model
  * seconds (see [[repro.gpusim.GpuModel]]) for the kernel and end-to-end
  * (kernel + PCIe) flavors. `lossless` is verified bit-exactness.
  */
final case class MetricsRow(
    dataset: String, domain: String, precision: String,
    codec: String, platform: String,
    origBytes: Long, compBytes: Long,
    compSec: Double, decompSec: Double,
    e2eCompSec: Double, e2eDecompSec: Double,
    lossless: Boolean) {
  def cr: Double = origBytes.toDouble / compBytes
  def ctGBps: Double = origBytes.toDouble / compSec / 1e9
  def dtGBps: Double = origBytes.toDouble / decompSec / 1e9
}

/** The core benchmark: measure every (dataset, codec) cell of the FCBench
  * grid in a driver loop. Spark generates the dataset blocks (the corpus is
  * MB-scale); the cells then run one after another, so no timed section
  * shares the CPU with another cell.
  */
object CompressionBench {

  /** The harness's one timing primitive: evaluate `f` `reps` times back to
    * back and return the last result with the fastest wall time in ns.
    * Best-of-N because shared hosts show multi-second CPU-steal dips that
    * would otherwise dominate the differences under test.
    */
  def bestOf[A](reps: Int)(f: => A): (A, Long) = {
    require(reps >= 1, s"bestOf needs reps >= 1, got $reps")
    def timed(): (A, Long) = {
      val t0 = System.nanoTime()
      val a  = f
      (a, System.nanoTime() - t0)
    }
    (2 to reps).foldLeft(timed()) { case ((_, best), _) =>
      val (a, ns) = timed()
      (a, math.min(best, ns))
    }
  }

  /** Measure one codec over one block. CPU methods: best-of-`iters` measured
    * wall time (JIT warmup discarded); GPU methods: cost-model time from the
    * work profile of a verified run.
    */
  def measure(codec: Codec, block: FpBlock, dataset: String, domain: String,
              iters: Int = 2): MetricsRow = {
    val comp0 = codec.compress(block) // warmup + profile source
    val (_, compNs) = bestOf(iters)(codec.compress(block))
    val dec0 = codec.decompress(comp0.bytes, block.precision, block.extent)
    val (_, decompNs) = bestOf(iters)(codec.decompress(comp0.bytes, block.precision, block.extent))
    val lossless = dec0.block.bits.sameElements(block.bits)

    val (compSec, decompSec, e2eComp, e2eDecomp) =
      if (codec.platform == "GPU") {
        val c = GpuModel.kernelSeconds(comp0.work)
        val d = GpuModel.kernelSeconds(dec0.work)
        (c, d,
         GpuModel.endToEndSeconds(comp0.work, block.sizeBytes, comp0.bytes.length),
         GpuModel.endToEndSeconds(dec0.work, comp0.bytes.length, block.sizeBytes))
      } else {
        val c = compNs / 1e9; val d = decompNs / 1e9
        (c, d, c, d)
      }

    MetricsRow(dataset, domain, block.precision.tag, codec.name, codec.platform,
               block.sizeBytes, comp0.bytes.length.toLong,
               compSec, decompSec, e2eComp, e2eDecomp, lossless)
  }

  /** Run the full grid: generate each dataset's block with Spark, then
    * measure every (dataset, codec) cell on the driver with the given codecs.
    */
  def runGrid(spark: SparkSession,
              specs: Seq[DatasetSpec] = FcDatasets.all,
              codecs: Seq[Codec] = CodecRegistry.all,
              targetValues: Int = 1 << 17,
              iters: Int = 2): Seq[MetricsRow] = {
    val blocks = specs.map(s => s -> s.block(spark, targetValues))
    for ((s, block) <- blocks; codec <- codecs)
      yield measure(codec, block, s.name, s.domain, iters)
  }

  /** Aggregate helpers (paper §5.2): harmonic mean of CRs, arithmetic mean of
    * throughputs.
    */
  def harmonicMean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.size / xs.map(1.0 / _).sum

  def arithmeticMean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.sum / xs.size

  /** Metrics rows as a DataFrame, for Spark SQL aggregation in the benches. */
  def toDF(spark: SparkSession, rows: Seq[MetricsRow]): DataFrame = {
    import spark.implicits._
    rows.toDF()
  }
}
