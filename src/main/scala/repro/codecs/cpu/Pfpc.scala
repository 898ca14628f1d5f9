package repro.codecs.cpu

import repro.core._

/** pFPC [Burtscher & Ratanaworabhan, DCC'09] — parallel FPC.
  *
  * FPC predicts each 64-bit word with two hash-table predictors (FCM and
  * DFCM), XORs the better prediction with the actual value, and emits a
  * 4-bit code per value — 1 bit for the chosen predictor, 3 bits for the
  * count of leading zero *bytes* (a count of 4 is encoded as 3, per the
  * original) — followed by the residual's non-zero bytes. Two codes share a
  * byte. pFPC partitions the input into chunks compressed by independent
  * threads; we default to the paper's 8 pthreads.
  *
  * FPC is a double-precision algorithm; single-precision input is handled
  * the way the paper ran it — the raw byte stream is reinterpreted as 64-bit
  * words (padded with zeros to a multiple of 8 bytes).
  */
final class Pfpc(val threads: Int = 8, tableBits: Int = 16) extends ThreadedCodec {
  override def name: String     = "pFPC"
  override def platform: String = "CPU"
  override def withThreads(t: Int): Codec = new Pfpc(t, tableBits)

  private val tableSize = 1 << tableBits
  private val tableMask = tableSize - 1

  override def compress(block: FpBlock): Compressed = {
    val words  = toWords(block)
    val chunks = chunkRanges(words.length, threads)
    val parts  = Parallel.map(chunks, threads) { case (from, until) =>
      compressChunk(words, from, until)
    }
    val out = new ByteBuf()
    out.writeIntLE(chunks.length)
    parts.foreach(p => out.writeIntLE(p.length))
    parts.foreach(out.write)
    val bytes = out.toByteArray
    Compressed(bytes, WorkProfile(words.length.toLong * 8, bytes.length,
                                  words.length.toLong * 20, divergent = false))
  }

  override def decompress(data: Array[Byte], precision: Precision, extent: Seq[Long]): Decompressed = {
    val n         = extent.product.toInt
    val rawBytes  = n * precision.bytes
    val nWords    = (rawBytes + 7) / 8
    // the chunk layout comes from the stream, not from this decoder's threads
    val nChunks   = ByteBuf.readIntLE(data, 0)
    val chunks    = chunkRanges(nWords, nChunks)
    require(nChunks == chunks.length, s"chunk count mismatch: $nChunks vs ${chunks.length}")
    val lengths   = (0 until nChunks).map(i => ByteBuf.readIntLE(data, 4 + 4 * i))
    val offsets   = lengths.scanLeft(4 + 4 * nChunks)(_ + _)
    val words     = new Array[Long](nWords)
    Parallel.map(chunks.indices.toIndexedSeq, threads) { ci =>
      val (from, until) = chunks(ci)
      decompressChunk(data, offsets(ci), words, from, until)
    }
    Decompressed(fromWords(words, precision, extent),
                 WorkProfile(data.length, nWords.toLong * 8, nWords.toLong * 14, divergent = false))
  }

  private def compressChunk(words: Array[Long], from: Int, until: Int): Array[Byte] = {
    val out   = new ByteBuf((until - from) * 8 / 2 + 16)
    val fcm   = new Array[Long](tableSize)
    val dfcm  = new Array[Long](tableSize)
    var fHash = 0
    var dHash = 0
    var last  = 0L

    val codes = new Array[Int](2)
    val resid = new Array[Long](2)
    var pair  = 0

    def flushPair(count: Int): Unit = {
      out.write((codes(0) << 4) | (if (count > 1) codes(1) else 0))
      var j = 0
      while (j < count) {
        val lzb = decodeLzb(codes(j) & 7)
        var b   = 8 - lzb - 1
        while (b >= 0) { out.write(((resid(j) >>> (8 * b)) & 0xff).toInt); b -= 1 }
        j += 1
      }
    }

    var i = from
    while (i < until) {
      val v     = words(i)
      val pF    = fcm(fHash)
      val pD    = dfcm(dHash) + last
      fcm(fHash) = v
      fHash = ((fHash << 6) ^ (v >>> 48).toInt) & tableMask
      dfcm(dHash) = v - last
      dHash = ((dHash << 2) ^ ((v - last) >>> 40).toInt) & tableMask
      last = v

      val xF = v ^ pF
      val xD = v ^ pD
      val useF = java.lang.Long.numberOfLeadingZeros(xF) >= java.lang.Long.numberOfLeadingZeros(xD)
      val x       = if (useF) xF else xD
      val predBit = if (useF) 0 else 1
      var lzb = java.lang.Long.numberOfLeadingZeros(x) / 8
      if (lzb == 4) lzb = 3 // FPC: a count of 4 is encoded as 3 (code space is 3 bits)
      codes(pair) = (predBit << 3) | encodeLzb(lzb)
      resid(pair) = x
      pair += 1
      if (pair == 2) { flushPair(2); pair = 0 }
      i += 1
    }
    if (pair == 1) flushPair(1)
    out.toByteArray
  }

  private def decompressChunk(data: Array[Byte], offset: Int,
                              words: Array[Long], from: Int, until: Int): Unit = {
    val fcm   = new Array[Long](tableSize)
    val dfcm  = new Array[Long](tableSize)
    var fHash = 0
    var dHash = 0
    var last  = 0L
    var ip    = offset
    var i     = from
    while (i < until) {
      val codeByte = data(ip) & 0xff; ip += 1
      val inPair   = math.min(2, until - i)
      var j = 0
      while (j < inPair) {
        val code = if (j == 0) codeByte >>> 4 else codeByte & 0xf
        val lzb  = decodeLzb(code & 7)
        var x    = 0L
        var b    = 8 - lzb - 1
        while (b >= 0) { x = (x << 8) | (data(ip) & 0xffL); ip += 1; b -= 1 }
        val pF = fcm(fHash)
        val pD = dfcm(dHash) + last
        val v  = if ((code & 8) == 0) x ^ pF else x ^ pD
        fcm(fHash) = v
        fHash = ((fHash << 6) ^ (v >>> 48).toInt) & tableMask
        dfcm(dHash) = v - last
        dHash = ((dHash << 2) ^ ((v - last) >>> 40).toInt) & tableMask
        last = v
        words(i + j) = v
        j += 1
      }
      i += inPair
    }
  }

  // FPC's 3-bit code covers leading-zero-byte counts {0,1,2,3,5,6,7,8}:
  // the rare count of 4 collapses into 3, freeing a code for 8 (all-zero).
  private def encodeLzb(lzb: Int): Int = if (lzb >= 5) lzb - 1 else lzb
  private def decodeLzb(code: Int): Int = if (code >= 4) code + 1 else code

  private def chunkRanges(n: Int, t: Int): IndexedSeq[(Int, Int)] = {
    val k = math.max(1, math.min(t, n))
    (0 until k).map { i =>
      val from  = (n.toLong * i / k).toInt
      val until = (n.toLong * (i + 1) / k).toInt
      (from, until)
    }
  }

  private def toWords(block: FpBlock): Array[Long] = Words.pack(block)

  private def fromWords(words: Array[Long], precision: Precision, extent: Seq[Long]): FpBlock =
    Words.unpack(words, precision, extent)
}
