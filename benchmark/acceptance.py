#!/usr/bin/env python3
"""The acceptance procedure of the benchmark contract, runnable by hand.

Runs the command named in BENCHMARK.json ten times per workload, each time
with another --seed, and prints for every end-to-end metric the distance
between the first and third quartile of the ten values as a share of their
median, beside the metric's bound. With --sets 2 it does so twice,
alternating workloads, and also compares the two medians.

    python3 benchmark/acceptance.py [--sets 2] [--runs 10] [--seed 100]
                                    [--workload hot_navigate] [--seconds 20]
                                    [--dump values.json]

Exits non-zero when a spread (setup_s excepted) or a median shift exceeds
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--dump", help="also write every run's values to this JSON file")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    # sets[s][workload][metric] -> values
    sets = [{w: {} for w in workloads} for _ in range(args.sets)]
    for i in range(args.runs):
        for s, found in enumerate(sets):
            for w in workloads:
                seed = args.seed + s * args.runs + i
                for name, value in run(spec, w, seed, seconds).items():
                    found[w].setdefault(name, []).append(value)
                print(f"set {s + 1} run {i + 1}/{args.runs} {w} seed {seed}", file=sys.stderr)
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(sets, f, indent=1)
    bad = 0
    print(f"{'workload':<14} {'metric':<24} {'median':>12} {'spread':>8} {'bound':>7} "
          f"{'of bound':>9}  shift vs set 1")
    for s, found in enumerate(sets):
        for w in workloads:
            for m in spec["end_to_end"]:
                values = found[w][m["name"]]
                med, spr = statistics.median(values), spread(values)
                verdict = ""
                if spr > m["bound"] and m["name"] != "setup_s":
                    verdict, bad = "SPREAD OVER BOUND", bad + 1
                shift = ""
                if s > 0:
                    base = statistics.median(sets[0][w][m["name"]])
                    worse = (med - base) / base * (1 if m["better"] == "lower" else -1)
                    shift = f"{worse:+.2%}"
                    if worse > m["bound"]:
                        verdict, bad = "MEDIAN WORSE THAN BOUND", bad + 1
                share = spr / m["bound"] if m["bound"] else float("inf") if spr else 0.0
                print(f"{w:<14} {m['name']:<24} {med:>12.5g} {spr:>8.2%} {m['bound']:>7.1%} "
                      f"{share:>9.2f}  {shift} {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
