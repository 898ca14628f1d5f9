package jobs

import org.apache.spark.sql.SparkSession
import repro.harness.tables._

/** spark-submit entrypoint reproducing the paper's tables:
  * `jobs.Run <table>...` with tables `table4` ... `table11`. Each table is
  * printed and saved to `bench/output/<table>.txt`. The local SparkSession is
  * configured like the test harness (broadcast joins off, modest shuffle
  * partitions).
  */
object Run {
  def main(args: Array[String]): Unit = {
    lazy val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"fcbench-${args.mkString("-")}")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    lazy val scaling = Table7And8.run(spark) // tables 7 and 8 share one sweep
    val tables: Seq[(String, () => String)] = Seq(
      "table4"  -> (() => Table4.run(spark).text),
      "table5"  -> (() => Table5.run(spark).text),
      "table6"  -> (() => Table6.run(spark).text),
      "table7"  -> (() => scaling.table7Text),
      "table8"  -> (() => scaling.table8Text),
      "table9"  -> (() => Table9.run(spark).text),
      "table10" -> (() => Table10.run(spark).text),
      "table11" -> (() => Table11.run(spark).text),
    )
    val byName = tables.toMap
    if (args.isEmpty || !args.forall(byName.contains)) {
      Console.err.println(s"usage: jobs.Run <table>... (${tables.map(_._1).mkString(" ")})")
      sys.exit(2)
    }
    try args.foreach { name =>
      val text = byName(name)()
      println(text)
      Render.save(name, text)
    } finally spark.stop()
  }
}
