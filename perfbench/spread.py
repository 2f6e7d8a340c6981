#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 10]

Runs the benchmark once per seed, one after another, and prints for each
metric its median and the distance between its first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
bound in BENCHMARK.json. Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares = {}, []
    for seed in seeds_from(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        host = [l for l in lines if l.startswith("reference loop")]
        if not result["correct"]:
            print("seed %d: incorrect output" % seed)
        shares.append(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s | %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items()),
            host[0] if host else ""))
    print("failed share per run: %s" % sorted(set(shares)))
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        print("%-14s median %.6g  IQR/median %.4f  (bound %s)" %
              (name, med, (q3 - q1) / med, bounds.get(name)))


if __name__ == "__main__":
    main()
