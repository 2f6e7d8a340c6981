#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark package (perfbench/CMakeLists.txt)
compiles the program from ../src into the build directory named by
$CARGO_TARGET_DIR (default .bench_build) on first use; build output goes to
stderr so the last line of stdout stays the JSON result. Traced runs write
their spans to <build dir>/spans/<workload>-seed<N>.csv.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_lan", "fabric_lossy", "socket_loopback")
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = "perfbench_selftest" if args.selftest else "perfbench"
    if not build(build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, target)
    if args.selftest:
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    # subprocess.run waits for the child; on timeout it kills and reaps it.
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
