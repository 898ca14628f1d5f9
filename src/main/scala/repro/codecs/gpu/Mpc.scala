package repro.codecs.gpu

import repro.core._
import repro.codecs.cpu.NdzipCore

/** MPC [Yang et al., Cluster'15] — Massively Parallel Compression, a
  * synthesized four-component pipeline over 1024-element chunks:
  *
  *   1. LNV6s — subtract the 6th prior value within the chunk.
  *   2. BIT   — bit transpose (the i-th bits of all words, packed into words;
  *              the same operation as bitshuffle).
  *   3. LNV1s — subtract the previous word of the transposed stream.
  *   4. ZE    — a zero-word bitmap followed by the non-zero words.
  *
  * The word size (32/64-bit) must match the data precision so LNV6s computes
  * meaningful residuals — the "input word size information is important"
  * insight from the paper.
  */
final class Mpc extends Codec {
  override def name: String     = "MPC"
  override def platform: String = "GPU"

  private val Chunk = 1024

  override def compress(block: FpBlock): Compressed = {
    val w      = block.precision.bits
    val nBytes = w / 8
    val m      = NdzipCore.mask(w)
    val vals   = block.bits
    val out    = new ByteBuf(vals.length * nBytes / 2 + 64)
    val r1     = new Array[Long](Chunk)
    val t      = new Array[Long](Chunk)
    val bitmap = new Array[Long](Chunk / w)
    var base = 0
    while (base < vals.length) {
      val len     = math.min(Chunk, vals.length - base)
      val nGroups = (len + w - 1) / w
      val nWords  = w * nGroups
      // 1. LNV6s, zero-padded to whole groups of w values
      var i = 0
      while (i < len) {
        r1(i) = if (i < 6) vals(base + i) else (vals(base + i) - vals(base + i - 6)) & m
        i += 1
      }
      java.util.Arrays.fill(r1, len, nWords, 0L)
      // 2. BIT: w bit planes of nGroups words each, MSB plane first
      toPlanes(r1, t, nGroups, w)
      // 3. LNV1s, in place from the back
      i = nWords - 1
      while (i > 0) { t(i) = (t(i) - t(i - 1)) & m; i -= 1 }
      // 4. ZE
      java.util.Arrays.fill(bitmap, 0, nGroups, 0L)
      i = 0
      while (i < nWords) { if (t(i) != 0) bitmap(i / w) |= 1L << (i % w); i += 1 }
      i = 0
      while (i < nGroups) { out.writeWordLE(bitmap(i), nBytes); i += 1 }
      i = 0
      while (i < nWords) { if (t(i) != 0) out.writeWordLE(t(i), nBytes); i += 1 }
      base += len
    }
    val bytes = out.toByteArray
    // ~14 ops/byte: two delta passes + the bit transpose (DESIGN.md #2)
    val ops = block.sizeBytes * 14
    Compressed(bytes, WorkProfile(block.sizeBytes * 3, bytes.length, ops, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val w      = precision.bits
    val m      = NdzipCore.mask(w)
    val bytes  = precision.bytes
    val n      = extent.product.toInt
    val vals   = new Array[Long](n)
    val r1     = new Array[Long](Chunk)
    val t      = new Array[Long](Chunk)
    val bitmap = new Array[Long](Chunk / w)
    var pos    = 0
    var base   = 0
    while (base < n) {
      val len     = math.min(Chunk, n - base)
      val nGroups = (len + w - 1) / w
      val nWords  = w * nGroups
      // one bitmap word per group: nWords / w
      var i = 0
      while (i < nGroups) { bitmap(i) = ByteBuf.readWordLE(data, pos, bytes); pos += bytes; i += 1 }
      i = 0
      while (i < nWords) {
        t(i) = if (((bitmap(i / w) >>> (i % w)) & 1L) != 0) {
                 val v = ByteBuf.readWordLE(data, pos, bytes); pos += bytes; v
               } else 0L
        i += 1
      }
      i = 1
      while (i < nWords) { t(i) = (t(i) + t(i - 1)) & m; i += 1 }
      fromPlanes(t, r1, nGroups, w)
      i = 0
      while (i < len) {
        vals(base + i) = if (i < 6) r1(i) else (r1(i) + vals(base + i - 6)) & m
        i += 1
      }
      base += len
    }
    val ops = n.toLong * bytes * 14
    Decompressed(FpBlock(precision, extent, vals),
                 WorkProfile(data.length + n.toLong * bytes, n.toLong * bytes, ops,
                             divergent = false))
  }

  /** Bit planes of `nGroups * w` values: plane p (bit w-1-p of every value)
    * fills `planes(p * nGroups until (p + 1) * nGroups)`, value i at bit
    * i % w of word i / w. One w x w transpose per group of w values turns
    * group g into its planes' g-th words, plane p at word w-1-p. `vals` is
    * transposed in place.
    */
  private def toPlanes(vals: Array[Long], planes: Array[Long], nGroups: Int, w: Int): Unit = {
    var g = 0
    while (g < nGroups) {
      val off = g * w
      BitTranspose.transpose(vals, off, w)
      var p = 0
      while (p < w) { planes(p * nGroups + g) = vals(off + w - 1 - p); p += 1 }
      g += 1
    }
  }

  /** Inverse of `toPlanes`: `planes` -> `vals(0 until nGroups * w)`. */
  private def fromPlanes(planes: Array[Long], vals: Array[Long], nGroups: Int, w: Int): Unit = {
    var g = 0
    while (g < nGroups) {
      val off = g * w
      var p = 0
      while (p < w) { vals(off + w - 1 - p) = planes(p * nGroups + g); p += 1 }
      BitTranspose.transpose(vals, off, w)
      g += 1
    }
  }
}
