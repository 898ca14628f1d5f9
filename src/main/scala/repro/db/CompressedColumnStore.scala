package repro.db

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.harness.CompressionBench
import repro.gpusim.GpuModel

/** The paper's "simulated in-memory database" (§5.1.2), ported from
  * HDF5 + Pandas to Parquet + Spark DataFrames (substitution #4 in
  * DESIGN.md): compressed column chunks live in a Parquet file; a query
  * pays (1) file I/O to fetch the chunks, (2) decode time, and (3) a full
  * table scan over the decoded in-memory column.
  *
  * Chunks are 1-D (column-store pages lose hypercube structure), sized like
  * the paper's HDF5 chunks.
  */
object CompressedColumnStore {

  final case class ChunkRow(blockId: Long, n: Long, payload: Array[Byte])

  final case class QueryTiming(dataset: String, codec: String,
                               readMs: Double, decodeMs: Double, queryMs: Double,
                               counts: Seq[Long])

  /** Compress `block` into `valuesPerChunk`-sized chunks and store as Parquet. */
  def write(spark: SparkSession, path: String, block: FpBlock, codec: Codec,
            valuesPerChunk: Int = 65536): Unit = {
    import spark.implicits._
    val chunks = block.bits.grouped(valuesPerChunk).zipWithIndex.map { case (slice, i) =>
      val sub = FpBlock(block.precision, Seq(slice.length.toLong), slice)
      ChunkRow(i.toLong, slice.length.toLong, codec.compress(sub).bytes)
    }.toSeq
    chunks.toDF().write.mode("overwrite").parquet(path)
  }

  /** Read chunks from Parquet (timed), decode them (timed), then run the
    * paper's query set — full table scans `value <= v_i` for 10 histogram
    * thresholds — on a Spark DataFrame over the decoded column (timed).
    * GPU codecs report cost-model decode time, as everywhere else.
    */
  def readDecodeQuery(spark: SparkSession, path: String, dataset: String,
                      codec: Codec, precision: Precision): QueryTiming = {
    import spark.implicits._

    spark.read.parquet(path).as[ChunkRow].count() // warm the file cache
    val (chunks, readNs) = CompressionBench.bestOf(2) {
      spark.read.parquet(path).as[ChunkRow].collect().sortBy(_.blockId)
    }

    def decodeAll(): (Array[Double], WorkProfile) = {
      var work = WorkProfile.zero
      val parts = chunks.map { c =>
        val d = codec.decompress(c.payload, precision, Seq(c.n))
        work = work + d.work
        d.block.toDoubles
      }
      (parts.flatten, work)
    }
    val ((values, decodeWork), decodeNs) = CompressionBench.bestOf(3)(decodeAll())
    val decodeSec =
      if (codec.platform == "GPU")
        GpuModel.kernelSeconds(decodeWork) +
          GpuModel.transferSeconds(chunks.map(_.payload.length.toLong).sum + values.length * 8L)
      else decodeNs / 1e9

    val df = spark.createDataset(values.toSeq).toDF("value").cache()
    df.count() // materialize outside the timed section
    val thresholds = histogramThresholds(values)
    val (counts, queryNs) = CompressionBench.bestOf(1) {
      thresholds.map(v => df.filter(col("value") <= v).count())
    }
    df.unpersist()

    QueryTiming(dataset, codec.name, readNs / 1e6, decodeSec * 1e3, queryNs / 1e6, counts)
  }

  /** The decoded column as a DataFrame (for oracle verification in tests). */
  def decode(spark: SparkSession, path: String, codec: Codec, precision: Precision): DataFrame = {
    import spark.implicits._
    val chunks = spark.read.parquet(path).as[ChunkRow].collect().sortBy(_.blockId)
    val values = chunks.flatMap(c => codec.decompress(c.payload, precision, Seq(c.n)).block.toDoubles)
    spark.createDataset(values.toSeq).toDF("value")
  }

  /** 10 thresholds from the value histogram, per the paper's footnote 14. */
  def histogramThresholds(values: Array[Double], bins: Int = 10): Seq[Double] = {
    val finite = values.filter(v => !v.isNaN && !v.isInfinite)
    if (finite.isEmpty) return Seq.fill(bins)(0.0)
    val lo = finite.min; val hi = finite.max
    (1 to bins).map(k => lo + (hi - lo) * k / bins)
  }
}
