package repro.harness

import repro.core._
import repro.gpusim.GpuModel

/** Block-size sweep support (Table 10): compress a dataset as a sequence of
  * independent fixed-size blocks — the HDF5-chunk / database-page regime —
  * and report aggregate CR/CT/DT at each block size.
  *
  * The paper runs this for the eight algorithms "easily converted to work
  * with blocks" (pFPC, SPDP, shf+LZ4, shf+zstd, Gorilla, Chimp, nv::LZ4,
  * nv::bitcomp); dimension-bound methods (fpzip/ndzip/GFC/MPC hypercubes)
  * are omitted exactly as in the paper.
  */
object BlockedRunner {

  final case class BlockedResult(codec: String, blockBytes: Int,
                                 cr: Double, ctGBps: Double, dtGBps: Double,
                                 lossless: Boolean)

  val PaperBlockSizes: Seq[Int] = Seq(4 * 1024, 64 * 1024, 8 * 1024 * 1024)

  /** Split a block into sub-blocks of `blockBytes` (1-D extent — pages do not
    * preserve hypercube structure, matching the column-store reality).
    */
  def split(block: FpBlock, blockBytes: Int): Seq[FpBlock] = {
    val valsPerBlock = math.max(1, blockBytes / block.precision.bytes)
    block.bits.grouped(valsPerBlock).map { slice =>
      FpBlock(block.precision, Seq(slice.length.toLong), slice)
    }.toSeq
  }

  def run(codec: Codec, block: FpBlock, blockBytes: Int, iters: Int = 2): BlockedResult = {
    val parts = split(block, blockBytes)

    def compressAll(): (Seq[Compressed], WorkProfile) = {
      val cs = parts.map(codec.compress)
      (cs, cs.map(_.work).foldLeft(WorkProfile.zero)(_ + _))
    }
    val (comps, compWork) = compressAll()

    def decompressAll(): (Seq[Decompressed], WorkProfile) = {
      val ds = comps.zip(parts).map { case (c, p) =>
        codec.decompress(c.bytes, p.precision, p.extent)
      }
      (ds, ds.map(_.work).foldLeft(WorkProfile.zero)(_ + _))
    }
    val (decs, decompWork) = decompressAll()

    val lossless = decs.zip(parts).forall { case (d, p) => d.block.bits.sameElements(p.bits) }
    val origBytes = block.sizeBytes
    val compBytes = comps.map(_.bytes.length.toLong).sum

    val (compSec, decompSec) =
      if (codec.platform == "GPU")
        (GpuModel.kernelSeconds(compWork), GpuModel.kernelSeconds(decompWork))
      else {
        val (_, cNs) = CompressionBench.bestOf(iters)(parts.foreach(codec.compress))
        val (_, dNs) = CompressionBench.bestOf(iters)(decompressAll())
        (cNs / 1e9, dNs / 1e9)
      }

    BlockedResult(codec.name, blockBytes,
                  origBytes.toDouble / compBytes,
                  origBytes.toDouble / compSec / 1e9,
                  origBytes.toDouble / decompSec / 1e9,
                  lossless)
  }
}
