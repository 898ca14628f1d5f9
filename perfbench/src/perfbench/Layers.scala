package perfbench

import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.functions.col
import repro.core._
import repro.data.{DatasetSpec, FcDatasets}
import repro.db.CompressedColumnStore
import repro.harness.CompressionBench
import repro.harness.tables.PaperNumbers
import repro.lz.{Lz4Backend, Lza6, ZstdBackend}

/** The traced run's layer sweep. It is the same in every workload's traced
  * run, so every per-layer metric is reported whatever the workload:
  * dataset generation, one corpus pass, one pages pass, probes of the core
  * and lz layers, a driver loop of `CompressionBench.measure`, one grid pass
  * and one column-store pair. Every call is timed through `trace`, and every
  * output is checked; failures are recorded in `t`.
  */
object Layers {
  type Metrics = mutable.LinkedHashMap[String, (Double, String)]

  def sweep(env: Env, trace: Trace, seed: Long, t: Tally, m: Metrics): Unit = {
    def put(name: String, v: Double, unit: String): Unit = m(name) = (v, unit)

    // data: every dataset, twice so the reported times are warm ones
    val genNs = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Long]]
    var all = Seq.empty[(DatasetSpec, FpBlock)]
    for (_ <- 1 to 2) {
      genNs.clear()
      all = FcDatasets.all.map { s =>
        val (b, ns) = trace.call("data", s"data.gen.${s.domain.toLowerCase}")(s.block(env.spark, Workload.Values))
        genNs.getOrElseUpdate(s.domain.toLowerCase, mutable.ArrayBuffer.empty) += ns
        s -> b
      }
    }
    genNs.foreach { case (d, ns) => put(s"data.gen_ms.$d", ns.sum / 1e6 / ns.size, "ms") }
    def subset(specs: Seq[DatasetSpec]) = all.filter { case (s, _) => specs.contains(s) }

    // codecs on whole datasets: host throughput and the WorkProfile guard
    val corpus = new Corpus
    corpus.blocks = all
    val ct = corpus.pass(env, trace)
    t.absorb(ct)
    CodecRegistry.all.foreach { c =>
      val s = ct.codecs.getOrElse(Names.slug(c.name), new CodecStat)
      val slug = Names.slug(c.name)
      put(s"codec.$slug.compress_MBps", Stats.mbps(s.rawBytes, s.compNs), "MB/s")
      put(s"codec.$slug.decompress_MBps", Stats.mbps(s.rawBytes, s.decompNs), "MB/s")
      put(s"codec.$slug.ops_per_byte", s.ops.toDouble / math.max(1L, s.rawBytes), "ops/B")
    }

    // codecs on 4 KB pages: per-call latency
    val pages = new Pages
    pages.blocks = subset(pages.specs)
    pages.prepare(env)
    val pt = pages.pass(env, trace)
    t.absorb(pt)
    PaperNumbers.Table10Methods.map(Names.slug).foreach { slug =>
      val s = pt.codecs.getOrElse(slug, new CodecStat)
      put(s"codec.$slug.page_compress_us", Stats.median(s.compSamplesNs.map(_ / 1e3).toSeq), "us")
      put(s"codec.$slug.page_decompress_us", Stats.median(s.decompSamplesNs.map(_ / 1e3).toSeq), "us")
    }

    val rng = new Random(seed)
    core(trace, rng, all.map(_._2), t, put)
    lz(trace, all.map(_._2), t, put)

    // harness: the grid's cells as a driver loop, then the grid itself
    val (_, measureNs) = trace.call("bench", "bench.measure_loop") {
      for ((s, b) <- all; c <- CodecRegistry.all) t.attempt(trace, s"measure/${s.name}/${c.name}") {
        val (row, _) = trace.call("harness", "harness.measure")(
          CompressionBench.measure(c, b, s.name, s.domain))
        if (!row.lossless) throw new AssertionError("measure: not lossless")
      }
    }
    val grid = new Grid
    grid.blocks = all
    grid.prepare(env)
    val (gt, gridNs) = trace.call("bench", "bench.grid_pass")(grid.pass(env, trace))
    t.absorb(gt)
    put("harness.measure_s", measureNs / 1e9, "s")
    put("harness.spark_overhead_s", (gridNs - genNs.values.flatten.sum - measureNs) / 1e9, "s")

    db(env, trace, seed, t, put)
  }

  /** Median MB/s over `reps` timed repetitions of `body`, which checks its
    * output, records failures in `t` and returns the bytes it moved.
    */
  private def rate(trace: Trace, t: Tally, layer: String, name: String, reps: Int)
                  (body: => Long): Double =
    Stats.median((1 to reps).map { _ =>
      t.attempted += 1
      val (bytes, ns) = trace.call(layer, name)(body)
      Stats.mbps(bytes, ns)
    })

  private def core(trace: Trace, rng: Random, blocks: Seq[FpBlock], t: Tally,
                   put: (String, Double, String) => Unit): Unit = {
    // bit I/O: 1M fields of 1..64 bits, as the XOR coders emit them
    val n      = 1 << 20
    val widths = Array.fill(n)(1 + rng.nextInt(64))
    val values = Array.tabulate(n)(i => rng.nextLong() >>> (64 - widths(i)))
    val bits   = widths.map(_.toLong).sum
    var stream = Array.emptyByteArray
    put("core.bitio.write_MBps", rate(trace, t, "core", "core.bitio.write", 5) {
      val w = new BitWriter(n * 4)
      var i = 0
      while (i < n) { w.writeBits(values(i), widths(i)); i += 1 }
      stream = w.toArray
      bits / 8
    }, "MB/s")
    put("core.bitio.read_MBps", rate(trace, t, "core", "core.bitio.read", 5) {
      val r = new BitReader(stream)
      var i = 0; var bad = 0
      while (i < n) { if (r.readBits(widths(i)) != values(i)) bad += 1; i += 1 }
      if (bad > 0) t.fail("core.bitio", s"$bad fields read back wrong")
      bits / 8
    }, "MB/s")

    // range coder: 1M skewed symbols over fpzip's 65-symbol alphabet, one byte each
    val syms = Array.fill(n)(math.min(64, (-math.log(1 - rng.nextDouble()) * 4).toInt))
    var coded = Array.emptyByteArray
    put("core.rangecoder.encode_MBps", rate(trace, t, "core", "core.rangecoder.encode", 5) {
      val enc = new RangeEncoder; val model = new AdaptiveModel(65)
      var i = 0
      while (i < n) { model.encodeSymbol(enc, syms(i)); i += 1 }
      coded = enc.finish()
      n.toLong
    }, "MB/s")
    put("core.rangecoder.decode_MBps", rate(trace, t, "core", "core.rangecoder.decode", 5) {
      val dec = new RangeDecoder(coded); val model = new AdaptiveModel(65)
      var i = 0; var bad = 0
      while (i < n) { if (model.decodeSymbol(dec) != syms(i)) bad += 1; i += 1 }
      if (bad > 0) t.fail("core.rangecoder", s"$bad symbols decoded wrong")
      n.toLong
    }, "MB/s")

    // FpBlock byte (de)serialisation over the corpus
    val raw = blocks.map(_.toBytes)
    put("core.fpblock.to_bytes_MBps", rate(trace, t, "core", "core.fpblock.to_bytes", 5) {
      blocks.map(_.toBytes.length.toLong).sum
    }, "MB/s")
    var back = Seq.empty[FpBlock]
    put("core.fpblock.from_bytes_MBps", rate(trace, t, "core", "core.fpblock.from_bytes", 5) {
      back = blocks.zip(raw).map { case (b, r) => FpBlock.fromBytes(b.precision, b.extent, r) }
      raw.map(_.length.toLong).sum
    }, "MB/s")
    if (!back.zip(blocks).forall { case (x, b) => java.util.Arrays.equals(x.bits, b.bits) })
      t.fail("core.fpblock", "fromBytes(toBytes) differs from the block")

    // Parallel.map: one dispatch of nproc trivial items
    val nproc = Runtime.getRuntime.availableProcessors()
    val items = (0 until nproc).toIndexedSeq
    val dispatchNs = (1 to 2000).map { _ =>
      t.attempted += 1
      val (out, ns) = trace.call("core", "core.parallel.map")(Parallel.map(items, nproc)(_ + 1))
      if (out != items.map(_ + 1)) t.fail("core.parallel", "map returned wrong items")
      ns / 1e3
    }
    put("core.parallel.map_us", Stats.median(dispatchNs), "us")
  }

  private def lz(trace: Trace, blocks: Seq[FpBlock], t: Tally,
                 put: (String, Double, String) => Unit): Unit = {
    val raw = blocks.map(_.toBytes)
    val total = raw.map(_.length.toLong).sum
    def backend(name: String, comp: Array[Byte] => Array[Byte],
                decomp: (Array[Byte], Int) => Array[Byte]): Unit = {
      var packed = Seq.empty[Array[Byte]]
      put(s"lz.$name.compress_MBps", rate(trace, t, "lz", s"lz.$name.compress", 3) {
        packed = raw.map(comp); total
      }, "MB/s")
      var unpacked = Seq.empty[Array[Byte]]
      put(s"lz.$name.decompress_MBps", rate(trace, t, "lz", s"lz.$name.decompress", 3) {
        unpacked = packed.zip(raw).map { case (p, r) => decomp(p, r.length) }
        total
      }, "MB/s")
      if (!unpacked.zip(raw).forall { case (u, r) => java.util.Arrays.equals(u, r) })
        t.fail(s"lz.$name", "round trip differs from the input")
    }
    backend("lza6", in => Lza6.compress(in)._1, (in, n) => Lza6.decompress(in, n)._1)
    backend("lz4", Lz4Backend.compress, Lz4Backend.decompress)
    backend("zstd", ZstdBackend.compress, ZstdBackend.decompress)
  }

  private def db(env: Env, trace: Trace, seed: Long, t: Tally,
                 put: (String, Double, String) => Unit): Unit = {
    import env.spark.implicits._
    val cs = new Colstore(new Random(seed))
    cs.generate(env)
    cs.prepare(env)
    val (spec, codec) = cs.pairs.head
    val b = cs.block(spec.name)
    val (thresholds, counts) = cs.expected(spec.name)
    val path = cs.pathFor(env, spec, codec)
    // twice: the first repetition warms Spark's Parquet paths, the second is reported
    for (_ <- 1 to 2) t.attempt(trace, s"db/${spec.name}/${codec.name}") {
      val (_, wNs) = trace.call("db", "db.write")(CompressedColumnStore.write(env.spark, path, b, codec))
      val chunks = env.spark.read.parquet(path).as[CompressedColumnStore.ChunkRow].collect().sortBy(_.blockId)
      val (decoded, decNs) = trace.call(Names.layer(codec), s"codec.${Names.slug(codec.name)}.decompress")(
        chunks.flatMap(c => codec.decompress(c.payload, spec.precision, Seq(c.n)).block.bits))
      if (!java.util.Arrays.equals(decoded, b.bits)) throw new AssertionError("decoded chunks differ from source")
      val (df, rdNs) = trace.call("db", "db.decode")(
        CompressedColumnStore.decode(env.spark, path, codec, spec.precision))
      df.cache().count()
      val (scanned, scanNs) = trace.call("db", "db.scan")(
        thresholds.map(v => df.filter(col("value") <= v).count()))
      df.unpersist()
      if (scanned != counts) throw new AssertionError(s"scan counts $scanned != source counts $counts")
      put("db.write_ms", wNs / 1e6, "ms")
      put("db.read_decode_ms", rdNs / 1e6, "ms")
      put("db.decode_only_ms", decNs / 1e6, "ms")
      put("db.scan_ms", scanNs / 1e6, "ms")
      put("db.parquet_bytes_per_raw_byte", Colstore.parquetBytes(path).toDouble / b.sizeBytes, "B/B")
    }
  }
}
