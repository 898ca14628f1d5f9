package repro.core

/** Allocation-free bit-matrix transposes (Hacker's Delight §7-3), the scalar
  * stand-ins for the SIMD transposition kernels of bitshuffle, ndzip and MPC.
  */
object BitTranspose {

  /** Exact in-place transpose of the w x w bit matrix held in
    * `a(off until off + w)`: bit j of word i swaps with bit i of word j.
    * `w` is 32 or 64; for 32 the words must hold only their low 32 bits,
    * and the result does too. Recursive block swap: at each level the
    * upper-right j x j blocks trade places with the lower-left ones.
    */
  def transpose(a: Array[Long], off: Int, w: Int): Unit = {
    var j = w >> 1
    var m = if (w == 64) 0x00000000ffffffffL else 0x0000ffffL
    while (j != 0) {
      var k = 0
      while (k < w) {
        val t = ((a(off + k) >>> j) ^ a(off + k + j)) & m
        a(off + k + j) ^= t
        a(off + k) ^= t << j
        k = (k + j + 1) & ~j
      }
      j >>= 1
      m ^= m << j
    }
  }

  /** Transpose the 8x8 bit matrix packed row-major in a 64-bit word (row r
    * is byte 7-r, most significant byte first): bit 8i+j swaps with bit 8j+i.
    */
  def transpose8x8(in: Long): Long = {
    var x = in
    var t = (x ^ (x >>> 7)) & 0x00aa00aa00aa00aaL
    x = x ^ t ^ (t << 7)
    t = (x ^ (x >>> 14)) & 0x0000cccc0000ccccL
    x = x ^ t ^ (t << 14)
    t = (x ^ (x >>> 28)) & 0x00000000f0f0f0f0L
    x = x ^ t ^ (t << 28)
    x
  }
}
