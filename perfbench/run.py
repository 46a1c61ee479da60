#!/usr/bin/env python3
"""Run one workload of the IUAD benchmark.

    python3 perfbench/run.py --workload namesakes --seed 42 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the benchmark (sbt, in
this directory, against the checkout's own src/main/scala) and records the
classpath; later runs start the benchmark JVM directly from it. The JVM prints
a report line and, as the last line of standard output, the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the checkout, the toolchain or the run is not usable.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CLASSPATH = HERE / "target" / "classpath.txt"
STAMP = HERE / "target" / "build.stamp"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 176


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file the build reads: the program's sources and the harness."""
    roots = [ROOT / "src" / "main", HERE / "src", HERE / "project" / "build.properties",
             HERE / "build.sbt", HERE / "jvm.options"]
    for r in roots:
        if r.is_file():
            yield r
        elif r.is_dir():
            yield from sorted(p for p in r.rglob("*") if p.is_file())


def build():
    """Builds once per source state; the stamp is a hash of every source."""
    h = hashlib.sha256()
    for p in sources():
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    stamp = h.hexdigest()
    if CLASSPATH.is_file() and STAMP.is_file() and STAMP.read_text() == stamp:
        return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH", 2)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SBT_OPTS"] = " ".join([env.get("SBT_OPTS", ""), "-Dsbt.offline=true", "-Dsbt.server.autostart=false",
                                "-XX:-UsePerfData", f"-Dsbt.global.base={WORK / 'sbt-global'}"]).strip()
    try:
        done = subprocess.run(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"], cwd=HERE, env=env,
                              stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if done.returncode != 0 or not CLASSPATH.is_file():
        fail("build failed", 3)
    STAMP.write_text(stamp)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (ROOT / "src" / "main" / "scala" / "repro" / "core" / "Iuad.scala").is_file():
        fail(f"no IUAD sources under {ROOT / 'src' / 'main' / 'scala'}; run from a checkout of the repository", 2)
    spark_home = os.environ.get("SPARK_HOME")
    if not spark_home or not (Path(spark_home) / "jars").is_dir():
        fail("SPARK_HOME must name a Spark 4 distribution", 2)
    if shutil.which("java") is None:
        fail("java is not on PATH", 2)

    WORK.mkdir(exist_ok=True)
    build()

    tmp = WORK / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    jvm = [line.strip() for line in (HERE / "jvm.options").read_text().splitlines() if line.strip()]
    cmd = ["java", *jvm, f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={tmp / 'warehouse'}",
           "-cp", CLASSPATH.read_text().strip(), "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    # Own process group, so a timed-out run is stopped with everything it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with {proc.returncode}", 1)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(out)
        fail("benchmark JVM printed no result line", 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
