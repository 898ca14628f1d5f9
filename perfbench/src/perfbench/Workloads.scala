package perfbench

import java.io.File
import scala.util.Random
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.{col, sum, when}
import repro.core.{Codec, CodecRegistry, FpBlock, Parallel}
import repro.data.{DatasetSpec, FcDatasets}
import repro.db.CompressedColumnStore
import repro.harness.{BlockedRunner, CompressionBench}
import repro.harness.tables.{PaperNumbers, Table10}

/** What every workload shares: the Spark session, the seeded random source
  * and a scratch directory the benchmark owns.
  */
final case class Env(spark: SparkSession, rng: Random, tmp: File)

/** A closed-loop workload: one driver thread issues each call after the
  * previous one returned. `generate` builds the inputs (set-up, repeated to
  * take a median), `prepare` derives what the checks need, and each `pass`
  * runs every operation once, in an order drawn from the seed.
  */
abstract class Workload(val name: String) {
  /** The datasets this workload generates. */
  def specs: Seq[DatasetSpec]
  var blocks: Seq[(DatasetSpec, FpBlock)] = Nil

  /** Generates the datasets from `GenThreads` driver threads: set-up only
    * needs the blocks, and Spark runs the jobs side by side.
    */
  def generate(env: Env): Unit =
    blocks = Parallel.map(specs.toIndexedSeq, Workload.GenThreads)(s => s -> s.block(env.spark, valuesFor(s)))
  def valuesFor(spec: DatasetSpec): Int = Workload.Values
  def prepare(env: Env): Unit = ()
  def pass(env: Env, trace: Trace): Tally
  /** Untraced passes in the excluded warm-up. */
  def warmupPasses: Int = 1
  def warmup(env: Env): Tally = {
    val t = new Tally
    (1 to warmupPasses).foreach(_ => t.absorb(pass(env, new Trace(false))))
    t
  }
  /** Raw bytes one pass feeds to the program. */
  def rawBytes: Long
  /** Run-header facts beyond the common ones. */
  def describe: Seq[(String, String)] = Nil
}

object Workload {
  /** Values per generated dataset (the FCBench tables use 1 << 17). */
  val Values: Int = 1 << 14

  val GenThreads = 4

  val names: Seq[String] = Seq("corpus", "pages", "colstore", "grid")

  def apply(name: String, env: Env): Workload = name match {
    case "corpus"   => new Corpus
    case "pages"    => new Pages
    case "colstore" => new Colstore(env.rng)
    case "grid"     => new Grid
    case other      => throw new IllegalArgumentException(
                         s"unknown workload: $other (known: ${names.mkString(", ")})")
  }

  /** Compress, decompress and bit-compare one block; record it in `t`. */
  def roundTrip(t: Tally, trace: Trace, cell: String, block: FpBlock, codec: Codec): Unit =
    t.attempt(trace, s"$cell/${codec.name}") {
      val slug  = Names.slug(codec.name)
      val layer = Names.layer(codec)
      val (c, cNs) = trace.call(layer, s"codec.$slug.compress")(codec.compress(block))
      val (d, dNs) = trace.call(layer, s"codec.$slug.decompress")(
        codec.decompress(c.bytes, block.precision, block.extent))
      val (same, _) = trace.call("bench", "bench.verify")(java.util.Arrays.equals(d.block.bits, block.bits))
      if (!same) throw new AssertionError("round trip is not bit-exact")
      t.roundTrip(codec, cell, block.sizeBytes, c.bytes.length, cNs, dNs,
                  c.work.ops + d.work.ops)
    }
}

/** Tables 4/5: every dataset x codec cell on whole-dataset blocks. */
final class Corpus extends Workload("corpus") {
  def specs: Seq[DatasetSpec] = FcDatasets.all
  /** Pass times keep falling for about three passes while C2 compiles the
    * 14 codecs' loops; a one-pass warm-up left that inside the window.
    */
  override def warmupPasses: Int = 3

  def pass(env: Env, trace: Trace): Tally = {
    val t = new Tally
    val cells = env.rng.shuffle(for (b <- blocks; c <- CodecRegistry.all) yield (b, c))
    cells.foreach { case ((spec, block), codec) =>
      Workload.roundTrip(t, trace, s"${spec.name}/${codec.name}", block, codec)
    }
    t
  }

  def rawBytes: Long = blocks.map(_._2.sizeBytes).sum * CodecRegistry.all.size
}

/** Table 10 at 4 KB: the blockable codecs on one page at a time. */
final class Pages extends Workload("pages") {
  val PageBytes = 4096
  var pages: Seq[(String, Seq[FpBlock])] = Nil

  def specs: Seq[DatasetSpec] = Table10.SampleDatasets.map(FcDatasets.byName)
  override def warmupPasses: Int = 3

  override def prepare(env: Env): Unit =
    pages = blocks.map { case (s, b) => s.name -> BlockedRunner.split(b, PageBytes) }

  def pass(env: Env, trace: Trace): Tally = {
    val t = new Tally
    val codecs = PaperNumbers.Table10Methods.map(CodecRegistry.byName)
    env.rng.shuffle(for (p <- pages; c <- codecs) yield (p, c)).foreach {
      case ((ds, ps), codec) => ps.foreach(p => Workload.roundTrip(t, trace, ds, p, codec))
    }
    t
  }

  def rawBytes: Long =
    pages.flatMap(_._2).map(_.sizeBytes).sum * PaperNumbers.Table10Methods.size

  override def describe: Seq[(String, String)] = Seq(
    "page_bytes" -> PageBytes.toString,
    "pages_per_pass" -> (pages.map(_._2.size).sum * PaperNumbers.Table10Methods.size).toString)
}

/** Table 11: write, decode and query TPC dataset x codec pairs through the
  * Parquet column store. Every run stores one TPC-H, one TPC-DS and one
  * TPCx-BB column with a fast (shf+LZ4), a slow (SPDP) and a GPU-modeled
  * (MPC) decoder; the seed draws which decoder each column gets. Keeping the
  * datasets and decoders fixed keeps a run's totals comparable across seeds:
  * with three Spark-bound pairs per pass, drawing them from all 7 x 11 moves
  * CR and throughput by more than any bound could absorb.
  */
final class Colstore(rng: Random) extends Workload("colstore") {
  val Datasets: Seq[String] = Seq("tpcH-order", "tpcDS-store", "tpcxBB-web")
  val Decoders: Seq[String] = Seq("shf+LZ4", "SPDP", "MPC")

  val pairs: Seq[(DatasetSpec, Codec)] =
    Datasets.map(FcDatasets.byName).zip(rng.shuffle(Decoders).map(CodecRegistry.byName))

  def specs: Seq[DatasetSpec] = pairs.map(_._1)

  /** Every column holds the same raw bytes: single precision gets twice the values. */
  override def valuesFor(spec: DatasetSpec): Int = Workload.Values * 8 / spec.precision.bytes

  private var byName: Map[String, FpBlock] = Map.empty
  /** Per dataset: the 10 histogram thresholds and the direct counts over the source. */
  var expected: Map[String, (Seq[Double], Seq[Long])] = Map.empty

  override def prepare(env: Env): Unit = {
    byName = blocks.map { case (s, b) => s.name -> b }.toMap
    expected = byName.map { case (ds, b) =>
      val values     = b.toDoubles
      val thresholds = CompressedColumnStore.histogramThresholds(values)
      ds -> (thresholds, thresholds.map(v => values.count(_ <= v).toLong))
    }
  }

  def block(ds: String): FpBlock = byName(ds)

  def pathFor(env: Env, spec: DatasetSpec, codec: Codec): String =
    new File(env.tmp, s"colstore/${spec.name}-${Names.slug(codec.name)}").getPath

  def pass(env: Env, trace: Trace): Tally = run(env, trace, env.rng.shuffle(pairs))

  /** One pair warms Spark's Parquet and SQL paths; a full pass would add ~7 s
    * of set-up to every run.
    */
  override def warmup(env: Env): Tally = run(env, new Trace(false), pairs.take(1))

  private def run(env: Env, trace: Trace, todo: Seq[(DatasetSpec, Codec)]): Tally = {
    val t = new Tally
    todo.foreach { case (spec, codec) =>
      t.attempt(trace, s"${spec.name}/${codec.name}") {
        val b    = byName(spec.name)
        val path = pathFor(env, spec, codec)
        val (thresholds, counts) = expected(spec.name)
        val (_, wNs) = trace.call("db", "db.write")(
          CompressedColumnStore.write(env.spark, path, b, codec))
        val (df, dNs) = trace.call("db", "db.decode")(
          CompressedColumnStore.decode(env.spark, path, codec, spec.precision))
        val (decoded, _) = trace.call("bench", "bench.verify")(Colstore.counts(df, thresholds))
        if (decoded != counts)
          throw new AssertionError(s"decode counts $decoded != source counts $counts")
        val (q, qNs) = trace.call("db", "db.readDecodeQuery")(
          CompressedColumnStore.readDecodeQuery(env.spark, path, spec.name, codec, spec.precision))
        if (q.counts != counts)
          throw new AssertionError(s"query counts ${q.counts} != source counts $counts")
        t.sample("write", wNs); t.sample("read_decode", dNs); t.sample("query", qNs)
        t.cells(s"${spec.name}/${codec.name}") = (b.sizeBytes, Colstore.parquetBytes(path))
      }
    }
    // Throughput of the median call: with three Spark-bound calls per pass,
    // one slow Spark job would otherwise move the whole pass's figure.
    val columnBytes = blocks.head._2.sizeBytes
    for (ws <- t.samplesNs.get("write")) t.countCompress(columnBytes, Stats.median(ws.map(_.toDouble).toSeq).toLong)
    for (ds <- t.samplesNs.get("read_decode")) t.countDecompress(columnBytes, Stats.median(ds.map(_.toDouble).toSeq).toLong)
    t
  }

  def rawBytes: Long = pairs.map { case (s, _) => byName(s.name).sizeBytes }.sum

  override def describe: Seq[(String, String)] =
    Seq("pairs" -> pairs.map { case (s, c) => s"${s.name}/${c.name}" }.mkString(" "))
}

object Colstore {
  /** The 10 threshold counts over a decoded column, in one aggregation. */
  def counts(df: org.apache.spark.sql.DataFrame, thresholds: Seq[Double]): Seq[Long] = {
    val row = df.agg(sum(when(col("value") <= thresholds.head, 1L).otherwise(0L)),
                     thresholds.tail.map(v => sum(when(col("value") <= v, 1L).otherwise(0L))): _*)
                .head()
    thresholds.indices.map(i => if (row.isNullAt(i)) 0L else row.getLong(i))
  }

  /** Bytes of the Parquet data files under `path`. */
  def parquetBytes(path: String): Long =
    Option(new File(path).listFiles()).toSeq.flatten
      .filter(_.getName.endsWith(".parquet")).map(_.length).sum
}

/** Tables 4-6 as they run: `CompressionBench.runGrid` over all cells, with
  * its own dataset generation. Each cell's compressed size must equal the
  * size `Codec.compress` gives the same block outside Spark.
  */
final class Grid extends Workload("grid") {
  def specs: Seq[DatasetSpec] = FcDatasets.all
  var reference: Map[(String, String), Long] = Map.empty

  override def prepare(env: Env): Unit =
    reference = (for ((s, b) <- blocks; c <- CodecRegistry.all)
                 yield (s.name, c.name) -> c.compress(b).bytes.length.toLong).toMap

  def pass(env: Env, trace: Trace): Tally = {
    val t      = new Tally
    val specs  = env.rng.shuffle(FcDatasets.all)
    val codecs = env.rng.shuffle(CodecRegistry.all)
    val all = try {
      trace.call("harness", "harness.runGrid")(
        CompressionBench.runGrid(env.spark, specs, codecs, Workload.Values, iters = 2))._1
    } catch { case scala.util.control.NonFatal(e) =>
      reference.keys.foreach { case (ds, c) => t.attempted += 1; t.fail(s"$ds/$c", e.toString) }
      return t
    }
    val rows = all.map(r => (r.dataset, r.codec) -> r).toMap
    t.attempt(trace, "grid/rows") {
      if (all.size != reference.size || rows.size != reference.size)
        throw new AssertionError(s"${all.size} rows over ${rows.size} cells, expected ${reference.size}")
    }
    for (s <- specs; c <- codecs) t.attempt(trace, s"${s.name}/${c.name}") {
      val r = rows.getOrElse((s.name, c.name), throw new AssertionError("row missing"))
      if (!r.lossless) throw new AssertionError("not lossless")
      val ref = reference((s.name, c.name))
      if (r.compBytes != ref) throw new AssertionError(s"compressed ${r.compBytes} B, corpus gives $ref B")
      if (r.platform == "CPU") {
        t.countCompress(r.origBytes, (r.compSec * 1e9).toLong)
        t.countDecompress(r.origBytes, (r.decompSec * 1e9).toLong)
      }
      t.cells(s"${s.name}/${c.name}") = (r.origBytes, r.compBytes)
    }
    t
  }

  def rawBytes: Long = blocks.map(_._2.sizeBytes).sum * CodecRegistry.all.size
}
