package perfbench

import scala.collection.mutable.ArrayBuffer

/** The benchmark's one timing primitive.
  *
  * `call` times a call into one of the program's layers and returns its
  * result with the elapsed nanoseconds. With tracing on it also records a
  * span (name, layer, start, end, parent span, op id); spans stay in memory
  * and are written out once, at exit. With tracing off nothing is recorded,
  * so end-to-end numbers are measured without the recorder's cost.
  *
  * Only the benchmark's driver thread opens spans, so the parent stack needs
  * no synchronisation.
  */
final class Trace(val enabled: Boolean) {
  import Trace.Span

  private val spans  = ArrayBuffer.empty[Span]
  private var stack  = List.empty[Int]
  private var nextId = 0

  /** Id of the operation (cell, page, pair or pass) that spans belong to. */
  var op: Long = 0

  def call[A](layer: String, name: String)(body: => A): (A, Long) =
    if (!enabled) {
      val t0 = System.nanoTime()
      val a  = body
      (a, System.nanoTime() - t0)
    } else {
      val id     = nextId
      val parent = stack.headOption.getOrElse(-1)
      nextId += 1
      stack = id :: stack
      val t0 = System.nanoTime()
      try {
        val a = body
        (a, System.nanoTime() - t0)
      } finally {
        spans += Span(id, parent, op, layer, name, t0, System.nanoTime())
        stack = stack.tail
      }
    }

  def spanCount: Int = spans.size

  /** Per layer: summed span time minus the time its child spans cover. */
  def selfMsByLayer: Map[String, Double] = {
    val childNs = new Array[Long](nextId)
    spans.foreach(s => if (s.parent >= 0) childNs(s.parent) += s.endNs - s.startNs)
    spans.groupBy(_.layer).map { case (layer, ss) =>
      layer -> ss.map(s => s.endNs - s.startNs - childNs(s.id)).sum / 1e6
    }
  }

  /** Write the spans as JSON lines, times relative to the first span. */
  def writeTo(file: java.io.File): Unit = if (enabled) {
    val t0 = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    val w  = new java.io.PrintWriter(file, "UTF-8")
    try spans.sortBy(_.id).foreach { s =>
      w.println(s"""{"id":${s.id},"parent":${s.parent},"op":${s.op},"layer":"${s.layer}",""" +
                s""""name":"${s.name}","start_ns":${s.startNs - t0},"end_ns":${s.endNs - t0}}""")
    } finally w.close()
  }
}

object Trace {
  final case class Span(id: Int, parent: Int, op: Long, layer: String, name: String,
                        startNs: Long, endNs: Long)
}
