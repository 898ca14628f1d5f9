package repro.harness

import repro.core.{FpBlock, ThreadedCodec}

/** Thread-scalability sweep (Tables 7 and 8): compression/decompression
  * throughput of the parallel CPU codecs at 1..32 threads. Runs on the
  * driver with an explicit pool per setting, because the variable under test
  * *is* the pool width.
  */
object ScalabilityBench {

  final case class ScalePoint(codec: String, threads: Int,
                              compMBps: Double, decompMBps: Double) {
    def speedupVs(base: ScalePoint): (Double, Double) =
      (compMBps / base.compMBps, decompMBps / base.decompMBps)
  }

  val ThreadSweep: Seq[Int] = Seq(1, 2, 4, 8, 16, 24, 32)

  def sweep(codec: ThreadedCodec, block: FpBlock, iters: Int = 3,
            threadCounts: Seq[Int] = ThreadSweep): Seq[ScalePoint] = {
    threadCounts.map { t =>
      val c = codec.withThreads(t)
      val comp = c.compress(block) // warmup
      val (_, compNs) = CompressionBench.bestOf(iters)(c.compress(block))
      val (_, decompNs) = CompressionBench.bestOf(iters)(
        c.decompress(comp.bytes, block.precision, block.extent))
      ScalePoint(codec.name, t,
                 block.sizeBytes.toDouble / (compNs / 1e9) / 1e6,
                 block.sizeBytes.toDouble / (decompNs / 1e9) / 1e6)
    }
  }
}
