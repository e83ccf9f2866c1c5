#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_chat --seed 1 --seconds 25 --trace 0

The first call configures and builds perfbench/ (which compiles the repo's
libraries from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later calls rebuild only what changed. The
benchmark binary then runs the workload and prints its report: a readable
summary on stderr and, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics. The exit code is the binary's
(non-zero when an output check fails); a failed build exits 2 without a
result line.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out):
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the result channel.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        return 2
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--work", work] + sys.argv[1:]
    # Own session, so a timeout can stop the binary and any replica workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s, stopping it" % RUN_TIMEOUT_S,
              file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
