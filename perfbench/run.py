#!/usr/bin/env python3
"""Run one workload of the TQP benchmark.

    python3 perfbench/run.py --workload tpch-tqp --seed 0 --seconds 10 --trace 0

Run from the repository root. The first run builds the program and the
harness with sbt (perfbench/build.sbt compiles ../src/main/scala together
with perfbench/src/main/scala) and caches the JVM launch line; later runs
reuse it until a source file changes. Each run starts its own JVM. The last
line of standard output is the result JSON; the full run record is written
to perfbench/results/.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
RESULTS = os.path.join(HERE, "results")
LAUNCH = os.path.join(TARGET, "launch.json")
STAMP = os.path.join(TARGET, "launch.stamp")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
JVM_FLAGS = ["-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages", "-XX:+UseParallelGC"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources():
    """Every file the build reads, in a fixed order."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main"),
             os.path.join(HERE, "project")]
    files = [os.path.join(HERE, "build.sbt")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files += [os.path.join(d, n) for n in sorted(names) if n.endswith((".scala", ".java", ".properties"))]
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_child(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd[:3])} ...")
    except BaseException:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise


def build():
    stamp = fingerprint()
    if os.path.exists(LAUNCH) and os.path.exists(STAMP) and open(STAMP).read() == stamp:
        return
    print("perfbench: building (sbt writeLaunch)", file=sys.stderr)
    code = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeLaunch"], BUILD_TIMEOUT_S,
                     cwd=HERE, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if code != 0 or not os.path.exists(LAUNCH):
        fail(f"build failed (exit {code})")
    with open(STAMP, "w") as fh:
        fh.write(stamp)


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"no TQP sources next to {HERE}; run from a full checkout")
    build()
    with open(LAUNCH) as fh:
        launch = json.load(fh)
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}", *launch["jvm_flags"],
           "-cp", os.pathsep.join(launch["classpath"]), "repro.perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--work-dir", RESULTS, "--commit", commit()]
    sys.exit(run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL))


if __name__ == "__main__":
    main()
