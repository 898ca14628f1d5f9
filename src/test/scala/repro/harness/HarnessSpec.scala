package repro.harness

import repro.SparkSpec
import repro.codecs.TestInputs
import repro.core.CodecRegistry
import repro.codecs.cpu.{BitshuffleLz4, Gorilla, NdzipCpu, Pfpc}
import repro.data.FcDatasets

class HarnessSpec extends SparkSpec {

  test("measure() returns sane metrics on a CPU codec") {
    val m = CompressionBench.measure(new Gorilla, TestInputs.smooth1dD(5000), "x", "HPC")
    assert(m.lossless)
    assert(m.origBytes == 5000L * 8)
    assert(m.compBytes > 0 && m.compSec > 0 && m.decompSec > 0)
    assert(m.cr > 0.5 && m.cr < 100)
    assert(m.platform == "CPU")
    assert(m.e2eCompSec == m.compSec, "CPU e2e == kernel time")
  }

  test("measure() uses the GPU model for GPU codecs") {
    // large enough that kernel-launch overhead does not dominate the model
    val m = CompressionBench.measure(CodecRegistry.byName("GFC"),
                                     TestInputs.smooth1dD(1 << 20), "x", "HPC", iters = 1)
    assert(m.lossless)
    assert(m.platform == "GPU")
    assert(m.e2eCompSec > m.compSec, "GPU e2e must include PCIe copies")
    // modeled kernel throughput must be in the >10 GB/s modeled GPU regime
    assert(m.ctGBps > 10, s"modeled GPU CT = ${m.ctGBps}")
  }

  test("harmonic mean and arithmetic mean") {
    assert(math.abs(CompressionBench.harmonicMean(Seq(1.0, 2.0)) - 4.0 / 3) < 1e-9)
    assert(CompressionBench.arithmeticMean(Seq(1.0, 2.0)) == 1.5)
    assert(CompressionBench.harmonicMean(Nil).isNaN)
  }

  test("runGrid executes every cell and aggregates to a DataFrame") {
    val specs  = Seq(FcDatasets.byName("citytemp"), FcDatasets.byName("tpcH-order"))
    val codecs = Seq(CodecRegistry.byName("Gorilla"), CodecRegistry.byName("MPC"))
    val rows   = CompressionBench.runGrid(spark, specs, codecs, targetValues = 3000, iters = 1)
    assert(rows.size == 4)
    assert(rows.forall(_.lossless))
    assert(rows.map(r => (r.dataset, r.codec)).toSet ==
      Set(("citytemp", "Gorilla"), ("citytemp", "MPC"),
          ("tpcH-order", "Gorilla"), ("tpcH-order", "MPC")))
    val df = CompressionBench.toDF(spark, rows)
    assert(df.count() == 4)
    assert(df.columns.contains("compSec"))
  }

  test("runGrid measures the codec instances it is given") {
    // msg-bt is double precision: 20000 values = 160 KB, over the registry
    // codec's 64 KB bitshuffle blocks, so the two configurations differ
    val spec  = FcDatasets.byName("msg-bt")
    val codec = new BitshuffleLz4(1, 4096)
    val block = spec.block(spark, 20000)
    assert(block.sizeBytes > 64 * 1024)
    val expected = codec.compress(block).bytes.length.toLong
    assert(expected != CodecRegistry.byName("shf+LZ4").compress(block).bytes.length,
           "the registry's shf+LZ4 must give a different size for this test to discriminate")
    val rows = CompressionBench.runGrid(spark, Seq(spec), Seq(codec), targetValues = 20000, iters = 1)
    assert(rows.map(_.compBytes) == Seq(expected))
    assert(rows.forall(_.lossless))
  }

  test("bestOf rejects fewer than one repetition") {
    assertThrows[IllegalArgumentException](CompressionBench.bestOf(0)(1))
  }

  test("bestOf evaluates its body reps times and returns the last value with the fastest time") {
    val sleepsMs = Seq(100L, 1L, 100L)
    var calls = 0
    val (last, ns) = CompressionBench.bestOf(3) {
      Thread.sleep(sleepsMs(calls))
      calls += 1
      calls
    }
    assert(calls == 3)
    assert(last == 3)
    assert(ns >= 1000000L && ns < 100000000L, s"best time $ns ns")
  }

  test("BlockedRunner.split yields 1-D sub-blocks covering the data") {
    val block = TestInputs.smooth1dD(10000)
    val parts = BlockedRunner.split(block, 4096)
    assert(parts.map(_.n).sum == block.n)
    assert(parts.forall(_.extent.size == 1))
    assert(parts.head.n == 512) // 4096 bytes / 8
  }

  test("BlockedRunner preserves losslessness across block sizes") {
    val block = TestInputs.quantizedD(20000, 2)
    for (bs <- BlockedRunner.PaperBlockSizes) {
      val r = BlockedRunner.run(new Pfpc(2), block, bs, iters = 1)
      assert(r.lossless, s"bs=$bs")
      assert(r.cr > 0.3)
    }
  }

  test("larger blocks do not hurt pFPC's CR (Observation 8 direction)") {
    val block = FcDatasets.byName("msg-bt").block(spark, 40000)
    val small = BlockedRunner.run(new Pfpc(1), block, 4096, iters = 1)
    val large = BlockedRunner.run(new Pfpc(1), block, 8 * 1024 * 1024, iters = 1)
    assert(large.cr >= small.cr * 0.98, s"4K=${small.cr} 8M=${large.cr}")
  }

  test("ScalabilityBench sweep returns one point per thread count") {
    val block  = TestInputs.smooth1dD(50000)
    val points = ScalabilityBench.sweep(new NdzipCpu(), block, iters = 1,
                                        threadCounts = Seq(1, 2, 4))
    assert(points.map(_.threads) == Seq(1, 2, 4))
    assert(points.forall(p => p.compMBps > 0 && p.decompMBps > 0))
  }

  test("pFPC with threads is not pathologically slower than serial") {
    // This VM shows multi-second CPU-steal dips, so a strict speedup
    // assertion is flaky; the scaling *numbers* are Table 7's output. Here we
    // only guard against pathological serialization (threads fighting).
    val block  = TestInputs.smooth1dD(1 << 20)
    val points = ScalabilityBench.sweep(new Pfpc(), block, iters = 4,
                                        threadCounts = Seq(1, 8))
    val s = points(1).compMBps / points(0).compMBps
    assert(s > 0.6, s"8-thread throughput collapsed to ${s}x of serial")
  }
}
