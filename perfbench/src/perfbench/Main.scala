package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.util.Random
import org.apache.spark.sql.SparkSession
import repro.core.{CodecRegistry, ThreadedCodec}

/** Benchmark entry point (see perfbench/README.md).
  *
  * `--workload W --seed N --seconds S --trace 0|1 --tmp DIR [--spans FILE]
  * [--git-sha SHA] [--source-sha SHA]`
  *
  * Starts Spark, generates the workload's inputs three times (set-up takes
  * the median), runs the warm-up, then runs passes until `S` seconds
  * are used. The last stdout line is the result JSON. With `--trace 1` it
  * alternates untraced and traced passes, runs the layer sweep and reports
  * the per-layer metrics instead of the end-to-end ones.
  */
object Main {
  private type Metrics = mutable.LinkedHashMap[String, (Double, String)]

  private def timed[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, System.nanoTime() - t0)
  }

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val name    = opt("workload")
    val seed    = opt("seed").toLong
    val seconds = opt("seconds").toDouble
    val traced  = opt("trace") match {
      case "0" => false
      case "1" => true
      case o   => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $o")
    }
    require(Workload.names.contains(name), s"unknown workload: $name (known: ${Workload.names.mkString(", ")})")
    val tmp = new File(opt("tmp"))

    val master = s"local[${math.min(4, Runtime.getRuntime.availableProcessors())}]"
    val (spark, sparkNs) = timed {
      SparkSession.builder
        .master(master)
        .appName(s"perfbench-$name")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", new File(tmp, "spark").getPath)
        .config("spark.sql.warehouse.dir", new File(tmp, "warehouse").getPath)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    }
    val out =
      try run(Env(spark, new Random(seed), tmp), name, seed, seconds, traced, sparkNs, opts)
      finally spark.stop()
    println(out)
    Console.flush()
    sys.exit(0)
  }

  private def run(env: Env, name: String, seed: Long, seconds: Double, traced: Boolean,
                  sparkNs: Long, opts: Map[String, String]): String = {
    val w     = Workload(name, env)
    val genNs = (1 to 3).map(_ => timed(w.generate(env))._2)
    val (_, prepNs) = timed(w.prepare(env))
    val total = new Tally
    val (warm, warmNs) = timed(w.warmup(env))
    total.absorb(warm)
    val setupS = (sparkNs + Stats.median(genNs.map(_.toDouble)) + prepNs + warmNs) / 1e9
    header(env, w, seed, seconds, traced, opts)
    report(f"set-up: spark ${sparkNs / 1e9}%.3f s, generate ${genNs.map(n => f"${n / 1e9}%.3f").mkString("/")} s, " +
           f"prepare ${prepNs / 1e9}%.3f s, warm-up ${warmNs / 1e9}%.3f s")

    // measured window: closed loop, one pass after another
    val off = new Trace(false)
    val on  = new Trace(traced)
    val offPasses, onPasses = mutable.ArrayBuffer.empty[(Tally, Long)]
    var gcMs, allocMB = 0.0
    val start = System.nanoTime()
    def elapsedNs = System.nanoTime() - start
    def medianNs(ps: Seq[(Tally, Long)]) = Stats.median(ps.map(_._2.toDouble))
    var i = 0
    while (offPasses.isEmpty || (traced && onPasses.isEmpty) ||
           elapsedNs + medianNs((offPasses ++ onPasses).toSeq) <= seconds * 1e9) {
      val tr = if (traced && i % 2 == 1) on else off
      val (gc0, alloc0) = jvm()
      val (tally, ns) = tr.call("bench", s"bench.pass.$name")(w.pass(env, tr))
      val (gc1, alloc1) = jvm()
      total.absorb(tally)
      if (tr eq off) {
        offPasses += tally -> ns
        gcMs += gc1 - gc0; allocMB += (alloc1 - alloc0) / 1e6
      } else onPasses += tally -> ns
      i += 1
    }
    val measured = offPasses.map(_._1).toSeq
    val passS    = medianNs(offPasses.toSeq) / 1e9
    report(f"window: ${elapsedNs / 1e9}%.3f s, ${offPasses.size} untraced and ${onPasses.size} traced passes, " +
           f"untraced pass_s ${offPasses.map(p => f"${p._2 / 1e9}%.3f").mkString(" ")}")
    samples(measured)
    codecShares(measured)

    val m: Metrics = mutable.LinkedHashMap.empty
    def put(n: String, v: Double, unit: String): Unit = m(n) = (v, unit)
    if (!traced) {
      put("setup_s", setupS, "s")
      put("pass_s", passS, "s")
      put("compress_MBps", Stats.median(measured.map(_.compressMBps)), "MB/s")
      put("decompress_MBps", Stats.median(measured.map(_.decompressMBps)), "MB/s")
      put("cr_hmean", measured.last.crHmean, "ratio")
      put("ops_ok_frac", (total.attempted - total.failed).toDouble / math.max(1L, total.attempted), "ratio")
    } else {
      Layers.sweep(env, on, seed, total, m)
      val selfMs = on.selfMsByLayer
      Seq("bench", "data", "codecs.cpu", "codecs.gpu", "core", "lz", "harness", "db").foreach { l =>
        put(s"layer.$l.self_ms", selfMs.getOrElse(l, 0.0), "ms")
      }
      put("jvm.gc_ms", gcMs / offPasses.size, "ms")
      put("jvm.alloc_MB", allocMB / offPasses.size, "MB")
      val offMed = medianNs(offPasses.toSeq)
      put("trace.overhead_frac", (medianNs(onPasses.toSeq) - offMed) / offMed, "ratio")
      put("trace.spans", on.spanCount.toDouble, "count")
      opts.get("spans").foreach(f => on.writeTo(new File(f)))
    }
    total.errors.foreach(e => report(s"FAILED $e"))
    result(total, m)
  }

  /** Human-readable lines; the result JSON stays the last stdout line. */
  private def report(line: String): Unit = println(s"# $line")

  /** Per-call latency: the median and the highest of p90/p99 with at least
    * ten samples beyond it, each with its sample count.
    */
  private def samples(passes: Seq[Tally]): Unit = {
    val kinds = passes.flatMap(_.samplesNs.keys).distinct
    kinds.foreach { k =>
      val xs = passes.flatMap(_.samplesNs.getOrElse(k, Nil)).map(_ / 1e3)
      val tail = Seq(99 -> 1000, 90 -> 100).collectFirst {
        case (p, need) if xs.size >= need => f", p$p ${Stats.percentile(xs, p)}%.1f us"
      }.getOrElse("")
      report(f"$k latency: n=${xs.size}, p50 ${Stats.median(xs)}%.1f us$tail")
    }
  }

  /** Median ms per pass inside each codec's calls (compress + decompress). */
  private def codecShares(passes: Seq[Tally]): Unit = {
    val slugs = passes.flatMap(_.codecs.keys).distinct
    if (slugs.nonEmpty)
      report("codec ms per pass: " + slugs.map { s =>
        val ms = passes.map(_.codecs.get(s).map(c => (c.compNs + c.decompNs) / 1e6).getOrElse(0.0))
        f"$s=${Stats.median(ms)}%.1f"
      }.mkString(" "))
  }

  private def jvm(): (Double, Double) = {
    import scala.jdk.CollectionConverters._
    val gc = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val alloc = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum
    (gc.toDouble, alloc.toDouble)
  }

  private def header(env: Env, w: Workload, seed: Long, seconds: Double, traced: Boolean,
                     opts: Map[String, String]): Unit = {
    val nproc = Runtime.getRuntime.availableProcessors()
    val threads = CodecRegistry.all.collect { case c: ThreadedCodec => s"${c.name}=${c.threads}" } :+
      s"ndzip-G=$nproc"
    val fc = sys.env.toSeq.filter(_._1.startsWith("FC_")).sorted.map { case (k, v) => s"$k=$v" }
    val facts = Seq(
      "workload" -> w.name, "seed" -> seed.toString, "seconds" -> seconds.toString,
      "trace" -> (if (traced) "1" else "0"), "nproc" -> nproc.toString,
      "java" -> sys.props("java.version"),
      "max_heap_MB" -> (Runtime.getRuntime.maxMemory >> 20).toString,
      "spark_master" -> env.spark.sparkContext.master, "spark" -> env.spark.version,
      "git_sha" -> opts.getOrElse("git-sha", "unknown"),
      "source_sha256" -> opts.getOrElse("source-sha", "unknown"),
      "fc_env" -> fc.mkString(" "), "codec_threads" -> threads.mkString(" "),
      "values_per_dataset" -> Workload.Values.toString,
      "raw_bytes_per_pass" -> w.rawBytes.toString) ++ w.describe
    report("header " + facts.map { case (k, v) => s""""$k": "${v.replace("\"", "'")}"""" }
      .mkString("{", ", ", "}"))
  }

  private def result(t: Tally, m: Metrics): String = {
    val finite = m.values.forall { case (v, _) => !v.isNaN && !v.isInfinite }
    val metrics = m.map { case (k, (v, unit)) =>
      val x = if (v.isNaN || v.isInfinite) 0.0 else v
      s""""$k": {"value": $x, "unit": "$unit"}"""
    }.mkString("{", ", ", "}")
    s"""{"correct": ${t.failed == 0 && finite}, "attempted": ${t.attempted}, "failed": ${t.failed}, "metrics": $metrics}"""
  }
}
