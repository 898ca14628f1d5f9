package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.core.Codec

/** Metric names: codec names mapped to slugs made of `[a-z0-9-]`
  * (`shf+LZ4` -> `shf-lz4`, `nv:btcomp` -> `nv-btcomp`, `ndzip-C` -> `ndzip-c`).
  */
object Names {
  def slug(codecName: String): String =
    codecName.toLowerCase.map(ch => if (ch.isLetterOrDigit) ch else '-')

  /** The program module a codec lives in. */
  def layer(codec: Codec): String =
    if (codec.platform == "GPU") "codecs.gpu" else "codecs.cpu"
}

/** One codec's work within a pass. */
final class CodecStat {
  var rawBytes, compNs, decompNs, ops = 0L
  val compSamplesNs, decompSamplesNs  = mutable.ArrayBuffer.empty[Long]
}

/** What one pass of a workload did: operations attempted and failed (with
  * their errors), the bytes and time behind the throughput metrics, per-call
  * samples and per-cell compressed sizes. A failing operation is recorded
  * and the pass goes on.
  */
final class Tally {
  var attempted, failed = 0L
  val errors = mutable.ArrayBuffer.empty[String]

  /** Bytes and nanoseconds behind compress_MBps and decompress_MBps. */
  var compBytes, timedCompNs, decompBytes, timedDecompNs = 0L
  /** Per-call latencies, one sample per call, keyed by the call kind. */
  val samplesNs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Long]]
  /** Per cell: (raw bytes, compressed bytes). */
  val cells = mutable.LinkedHashMap.empty[String, (Long, Long)]
  val codecs = mutable.LinkedHashMap.empty[String, CodecStat]

  def attempt(trace: Trace, label: String)(body: => Unit): Unit = {
    attempted += 1
    trace.op += 1
    try body catch { case NonFatal(e) => fail(label, e.toString) }
  }

  def fail(label: String, error: String): Unit = {
    failed += 1
    if (errors.size < 20) errors += s"$label: $error"
  }

  /** Add another tally's operation counts and errors to this one. */
  def absorb(o: Tally): Unit = {
    attempted += o.attempted
    failed += o.failed
    errors ++= o.errors.take(20 - errors.size)
  }

  def sample(kind: String, ns: Long): Unit =
    samplesNs.getOrElseUpdate(kind, mutable.ArrayBuffer.empty[Long]) += ns

  def countCompress(rawBytes: Long, ns: Long): Unit = { compBytes += rawBytes; timedCompNs += ns }
  def countDecompress(rawBytes: Long, ns: Long): Unit = { decompBytes += rawBytes; timedDecompNs += ns }

  /** Record one verified compress/decompress round trip of `codec`. */
  def roundTrip(codec: Codec, cell: String, rawBytes: Long, compBytes: Long,
                compNs: Long, decompNs: Long, ops: Long): Unit = {
    if (codec.platform == "CPU") { countCompress(rawBytes, compNs); countDecompress(rawBytes, decompNs) }
    sample("decompress", decompNs)
    val (r, c) = cells.getOrElse(cell, (0L, 0L))
    cells(cell) = (r + rawBytes, c + compBytes)
    val s = codecs.getOrElseUpdate(Names.slug(codec.name), new CodecStat)
    s.rawBytes += rawBytes; s.compNs += compNs; s.decompNs += decompNs; s.ops += ops
    s.compSamplesNs += compNs; s.decompSamplesNs += decompNs
  }

  def compressMBps: Double   = Stats.mbps(compBytes, timedCompNs)
  def decompressMBps: Double = Stats.mbps(decompBytes, timedDecompNs)
  def crHmean: Double = Stats.hmean(cells.values.map { case (r, c) => r.toDouble / c }.toSeq)
}

object Stats {
  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Nearest-rank percentile. */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      s(math.min(s.size - 1, math.max(0, math.ceil(p / 100 * s.size).toInt - 1)))
    }

  def hmean(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN else xs.size / xs.map(1.0 / _).sum

  def mbps(bytes: Long, ns: Long): Double = if (ns <= 0) Double.NaN else bytes * 1e3 / ns
}
