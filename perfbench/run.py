#!/usr/bin/env python3
"""Build and run the vtrans benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles ../src) in Release mode under
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and relays the
perfbench binary's output: its last stdout line is the JSON result. Build logs go to
stderr. Exits non-zero, printing no result, if the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("sweep", "chunked")
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one vtrans benchmark workload.", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    return args


def run(command, timeout=None, stdout=None, env=None):
    """Runs a child to completion; kills and reaps it if this process is
    interrupted or the timeout passes. Returns (exit code, stdout)."""
    proc = subprocess.Popen(command, stdout=stdout, stderr=sys.stderr, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        print(f"run.py: {command[0]} timed out", file=sys.stderr)
        return 1, None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build(bench_dir, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(build_dir, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        if run(step, stdout=sys.stderr, env=env)[0] != 0:
            return None
    return os.path.join(build_dir, "perfbench")


def main(argv):
    args = parse_args(argv)
    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "perfbench")
    binary = build(bench_dir, build_dir)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(target, "results")
    os.makedirs(out_dir, exist_ok=True)
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--golden", os.path.join(bench_dir, "golden.txt"),
               "--out-dir", out_dir]
    code, stdout = run(command, timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code != 0:
        print(f"run.py: perfbench exited {code}", file=sys.stderr)
        return 1
    sys.stdout.write(stdout.decode())
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so run() reaps its child either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
