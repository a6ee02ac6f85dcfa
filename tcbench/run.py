"""Runs one workload of the TC-Tree / miner benchmark.

    python3 tcbench/run.py --workload aminer --seed 13 --seconds 30 --trace 0

Builds the program and the benchmark from source if needed (tcbench/build.py),
then runs the benchmark in one local-mode Spark driver JVM pinned to every
available core. The JVM prints a readable report and, as its last line, the
JSON result. Every file the run writes stays under .bench_build/.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

import build

WORKLOADS = ("aminer", "syn")
RUN_TIMEOUT_S = 170
# A fixed-size heap and the throughput collector give steadier timings than
# G1's adaptive sizing.
JVM_HEAP = ["-Xms3g", "-Xmx3g", "-XX:+UseParallelGC"]

# Module opens that spark-submit passes to a Java 17 driver.
JAVA_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar")
]


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        classes, jars, stamp = build.build()
    except build.BuildError as e:
        print(f"tcbench: {e}", file=sys.stderr)
        return 2

    work = build.BUILD_DIR / "work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_HEAP, "-XX:-UsePerfData", *JAVA_OPENS,
           f"-Djava.io.tmpdir={work / 'tmp'}",
           f"-Dlog4j2.configurationFile={build.BENCH / 'log4j2.properties'}",
           f"-Dtcbench.workdir={work}",
           f"-Dtcbench.commit={git_commit()}",
           f"-Dtcbench.digest={stamp}",
           "-cp", f"{classes}:{jars}/*", "repro.tcbench.Main",
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(work / "spark-local"))
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line:
                print(line, flush=True)
                last = line
        code = proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        timer.cancel()

    if timed_out.is_set():
        print(f"tcbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    if code != 0:
        print(f"tcbench: benchmark exited with code {code}", file=sys.stderr)
        return code
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        print("tcbench: the run printed no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
