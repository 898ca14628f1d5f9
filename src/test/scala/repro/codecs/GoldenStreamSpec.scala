package repro.codecs

import java.util.zip.CRC32

import repro.SparkSpec
import repro.core.{Codec, WorkProfile}
import repro.codecs.cpu.{BitshuffleLz4, BitshuffleZstd, NdzipCpu}
import repro.codecs.gpu.{Mpc, NdzipGpu}

/** Golden streams for the bit-transposing codecs: the CRC32 of every
  * compressed stream, and the work profiles that feed the GPU model
  * (Tables 5, 6 and 11). The values were recorded from the codecs as they
  * stood before the shared `BitTranspose` kernel replaced their private
  * transposes, so a match shows the kernel changed no byte and no profile.
  *
  * Besides the `TestInputs` corpus, single and double random and smooth
  * blocks of 1000, 1025 and 16387 values hit MPC's partial w-value group and
  * partial 1024-value chunk, and ndzip's verbatim border.
  */
class GoldenStreamSpec extends SparkSpec {

  private val codecs: Seq[Codec] =
    Seq(new Mpc, new NdzipCpu(), new NdzipGpu, new BitshuffleLz4(), new BitshuffleZstd())

  private val blocks = TestInputs.corpus.toMap ++ (for {
    n <- Seq(1000, 1025, 16387)
    (kind, block) <- Seq("random-double" -> TestInputs.randomD(n),
                         "random-single" -> TestInputs.randomS(n),
                         "smooth-double" -> TestInputs.smooth1dD(n),
                         "smooth-single" -> TestInputs.smooth1dS(n))
  } yield s"$kind-$n" -> block)

  // block -> CRC32 per codec, in the order MPC, ndzip-C, ndzip-G, shf+LZ4, shf+zstd
  private val golden: Seq[(String, Seq[Long])] = Seq(
    "smooth-1d-double"      -> Seq(0x9abf74a5L, 0xd262e64cL, 0xd262e64cL, 0xd9dc9d24L, 0x38241635L),
    "smooth-2d-double"      -> Seq(0x2fab452eL, 0x941ccae0L, 0x941ccae0L, 0x26ffb951L, 0x86bd8640L),
    "smooth-3d-single"      -> Seq(0xf15dab54L, 0x2dc7293dL, 0x2dc7293dL, 0x930f8acdL, 0x1d2a4b68L),
    "random-double"         -> Seq(0xb7fd773fL, 0x6708dc05L, 0x6708dc05L, 0x5637d4bfL, 0xb52fe686L),
    "random-single"         -> Seq(0x96ee2f9fL, 0x1f81351cL, 0x1f81351cL, 0x1aeddef2L, 0xb19487b2L),
    "specials-double"       -> Seq(0x08a7aa64L, 0x1d1ae8a7L, 0x1d1ae8a7L, 0xcc903299L, 0x5de82d87L),
    "specials-single"       -> Seq(0xb40b0c1aL, 0x9573fe7aL, 0x9573fe7aL, 0x2efe35b6L, 0x3f86369eL),
    "quantized-2dec-double" -> Seq(0x2fcc9a0aL, 0x4ba48560L, 0x4ba48560L, 0xa5630dd7L, 0x867e4adcL),
    "constant-double"       -> Seq(0x259234b3L, 0x0ef788cfL, 0x0ef788cfL, 0x1103efcdL, 0x8f38f76bL),
    "runs-single"           -> Seq(0xdf7713a8L, 0x710197d8L, 0x710197d8L, 0x474d4fe9L, 0xa98fd504L),
    "tiny-double"           -> Seq(0xf155f7e9L, 0x2c3d750fL, 0x2c3d750fL, 0x10e83c5fL, 0xa0c3cde1L),
    "single-value"          -> Seq(0x262ffeadL, 0x80073cbfL, 0x80073cbfL, 0x545bca89L, 0xdcb8d79dL),
    "block-multiple-4096"   -> Seq(0x5cef2206L, 0x9847d7a3L, 0x9847d7a3L, 0xe19d4e1cL, 0xb2510d4bL),
    "random-double-1000"    -> Seq(0xf5307b1dL, 0x0b877f7eL, 0x0b877f7eL, 0x542eeef6L, 0xac2b8301L),
    "random-single-1000"    -> Seq(0x0e17b4d5L, 0xc15a6814L, 0xc15a6814L, 0x4a13a4bcL, 0x467371e3L),
    "smooth-double-1000"    -> Seq(0xbb48079dL, 0x199083a2L, 0x199083a2L, 0xf8051853L, 0xe584c2afL),
    "smooth-single-1000"    -> Seq(0x90b3abb4L, 0x24b006a6L, 0x24b006a6L, 0xf9463d19L, 0x01bd5864L),
    "random-double-1025"    -> Seq(0xa0ee0ecaL, 0x90c9a334L, 0x90c9a334L, 0xe456ed54L, 0x4fe2042fL),
    "random-single-1025"    -> Seq(0x735716b3L, 0xe6769defL, 0xe6769defL, 0xe256f58eL, 0x22730a32L),
    "smooth-double-1025"    -> Seq(0x720da501L, 0xfc1a5b4eL, 0xfc1a5b4eL, 0x1b2c3f2eL, 0x2459cbc3L),
    "smooth-single-1025"    -> Seq(0x4dba10e0L, 0x4213e35bL, 0x4213e35bL, 0x7b93b4eaL, 0xb40aad2bL),
    "random-double-16387"   -> Seq(0x59da9640L, 0xfa108dbbL, 0xfa108dbbL, 0xf30e8e6fL, 0x65dd2855L),
    "random-single-16387"   -> Seq(0xdcc618d3L, 0x58b2142bL, 0x58b2142bL, 0x1faf53dcL, 0x56894e79L),
    "smooth-double-16387"   -> Seq(0x1b57e478L, 0x2c00ddd0L, 0x2c00ddd0L, 0xb61206d8L, 0xf856256aL),
    "smooth-single-16387"   -> Seq(0xfef2e68bL, 0x7c58ab60L, 0x7c58ab60L, 0x2129fa54L, 0xbd7a2397L),
  )

  private def crc32(bytes: Array[Byte]): Long = {
    val c = new CRC32
    c.update(bytes)
    c.getValue
  }

  test("golden table covers every TestInputs block") {
    assert(TestInputs.corpus.map(_._1).toSet.subsetOf(golden.map(_._1).toSet))
  }

  for ((name, crcs) <- golden) {
    test(s"compressed streams of $name match their golden CRC32s") {
      val block = blocks(name)
      val wrong = codecs.zip(crcs).flatMap { case (codec, want) =>
        val got = crc32(codec.compress(block).bytes)
        if (got == want) None else Some(f"${codec.name}: 0x$got%08x, golden 0x$want%08x")
      }
      assert(wrong.isEmpty, wrong.mkString("; "))
    }
  }

  // (codec, block) -> (compress profile, decompress profile)
  private val goldenWork: Seq[(Codec, String, WorkProfile, WorkProfile)] = Seq(
    (new Mpc,       "block-multiple-4096", WorkProfile(196608, 64744, 917504, false), WorkProfile(130280, 65536, 917504, false)),
    (new NdzipCpu(), "block-multiple-4096", WorkProfile(131072, 53308, 458752, false), WorkProfile(118844, 65536, 458752, false)),
    (new NdzipGpu,  "block-multiple-4096", WorkProfile(131072, 106616, 458752, false), WorkProfile(118844, 65536, 458752, false)),
    (new Mpc,       "random-single",       WorkProfile(49164, 16964, 229432, false),  WorkProfile(33352, 16388, 229432, false)),
    (new NdzipCpu(), "random-single",       WorkProfile(32776, 16908, 114716, false),  WorkProfile(33296, 16388, 114716, false)),
    (new NdzipGpu,  "random-single",       WorkProfile(32776, 33816, 114716, false),  WorkProfile(33296, 16388, 114716, false)),
  )

  for ((codec, name, wantC, wantD) <- goldenWork) {
    test(s"${codec.name} work profiles on $name match the golden ones") {
      val block = blocks(name)
      val comp  = codec.compress(block)
      assert(comp.work == wantC)
      assert(codec.decompress(comp.bytes, block.precision, block.extent).work == wantD)
    }
  }
}
