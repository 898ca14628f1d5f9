package repro.core

import repro.{PropSupport, SparkSpec}
import org.scalacheck.{Gen, Prop}

/** `BitTranspose` against a bit-by-bit reference transpose. */
class BitTransposeSpec extends SparkSpec with PropSupport {

  private def bit(x: Long, i: Int): Long = (x >>> i) & 1L

  /** Reference: bit j of word i of the result is bit i of word j. */
  private def naive(rows: Array[Long], w: Int): Array[Long] =
    Array.tabulate(w)(i => (0 until w).foldLeft(0L)((acc, j) => acc | (bit(rows(j), i) << j)))

  private def matrix(w: Int): Gen[Array[Long]] =
    Gen.listOfN(w, Gen.choose(Long.MinValue, Long.MaxValue))
      .map(_.toArray.map(x => if (w == 64) x else x & 0xffffffffL))

  for (w <- Seq(32, 64)) {
    test(s"property: ${w}x$w transpose of a window matches the bit-by-bit reference") {
      val gen = for { m <- matrix(w); off <- Gen.choose(1, 9); pad <- Gen.choose(0, 5) } yield (m, off, pad)
      checkProp(Prop.forAll(gen) { case (m, off, pad) =>
        val a = Array.fill(off + w + pad)(0x5a5a5a5aL)
        System.arraycopy(m, 0, a, off, w)
        BitTranspose.transpose(a, off, w)
        a.slice(off, off + w).sameElements(naive(m, w)) &&
          a.take(off).forall(_ == 0x5a5a5a5aL) && a.drop(off + w).forall(_ == 0x5a5a5a5aL)
      }, minTests = 100)
    }

    test(s"property: ${w}x$w transpose applied twice is the identity") {
      checkProp(Prop.forAll(matrix(w), Gen.choose(0, 7)) { (m, off) =>
        val a = new Array[Long](off + w)
        System.arraycopy(m, 0, a, off, w)
        BitTranspose.transpose(a, off, w)
        BitTranspose.transpose(a, off, w)
        a.drop(off).sameElements(m)
      }, minTests = 100)
    }
  }

  test("property: 8x8 transpose matches the bit-by-bit reference") {
    checkProp(Prop.forAll(Gen.choose(Long.MinValue, Long.MaxValue)) { x =>
      // row r is byte r counted from the least significant end
      val rows = Array.tabulate(8)(r => (x >>> (8 * r)) & 0xffL)
      val want = naive(rows, 8).zipWithIndex.foldLeft(0L) { case (acc, (row, r)) => acc | (row << (8 * r)) }
      BitTranspose.transpose8x8(x) == want &&
        BitTranspose.transpose8x8(BitTranspose.transpose8x8(x)) == x
    }, minTests = 200)
  }
}
