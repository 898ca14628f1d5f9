#!/usr/bin/env python3
"""Build the program with the benchmark driver and run one benchmark workload.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 16 --trace 0

Workloads: corpus, pages, colstore, grid (see perfbench/README.md). The
program's sources (src/main/scala) and the driver (perfbench/src) are compiled
with the Scala compiler shipped in the Spark distribution ($SPARK_HOME/jars,
or the one that holds `spark-submit` on PATH) into .bench_build/perfbench/,
keyed by a hash of the sources, so only the first run of a checkout builds.
Each run gets its own scratch directory under .bench_build/perfbench/, removed
at exit. The last line of stdout is the result JSON.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
DRIVER_SRC = os.path.join(HERE, "src")
WORKLOADS = ("corpus", "pages", "colstore", "grid")
RUN_TIMEOUT_S = 170
HEAP = "-Xmx3g"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not os.path.isdir(jars):
        fail("no Spark distribution found: set SPARK_HOME")
    return os.path.join(jars, "*")


def sources():
    found = []
    for top in (PROGRAM_SRC, DRIVER_SRC):
        for d, _, files in os.walk(top):
            found += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(found)


def build(jars):
    """Compile once per source hash; returns (classes dir, source hash)."""
    srcs = sources()
    h = hashlib.sha256()
    for s in srcs:
        h.update(os.path.relpath(s, ROOT).encode())
        with open(s, "rb") as f:
            h.update(f.read())
    digest = h.hexdigest()
    classes = os.path.join(BUILD, "classes-" + digest[:16])
    if os.path.isdir(classes):
        return classes, digest
    staging = classes + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    t0 = time.time()
    proc = subprocess.run(
        ["java", "-Xmx1g", "-XX:-UsePerfData", "-cp", jars, "scala.tools.nsc.Main", "-nowarn",
         "-classpath", jars, "-d", staging] + srcs,
        stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        fail("compilation failed")
    os.rename(staging, classes)
    print(f"perfbench: compiled in {time.time() - t0:.1f} s", file=sys.stderr)
    return classes, digest


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SRC, ROOT)}")

    jars = spark_jars()
    classes, digest = build(jars)
    scratch = os.path.join(BUILD, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    spans = os.path.join(BUILD, f"spans-{args.workload}-seed{args.seed}.jsonl")
    # -XX:-UsePerfData: the JVM would otherwise write /tmp/hsperfdata_<user>
    cmd = ["java", HEAP, "-XX:-UsePerfData", f"-Djava.io.tmpdir={scratch}",
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-cp", classes + os.pathsep + jars, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--tmp", scratch, "--spans", spans,
           "--git-sha", git_sha(), "--source-sha", digest]
    proc = subprocess.Popen(cmd, cwd=scratch)
    # a terminated runner still stops the JVM and removes the scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = -1
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if code != 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
