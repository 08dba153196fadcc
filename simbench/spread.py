#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 simbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0]

Run from the repository root. For every workload it runs
`bash simbench/run.sh` once per seed, checks each result line (correct,
no failures, exactly the metrics BENCHMARK.json names), and prints
per metric the median, the quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and the metric's bound. A spread at or above
a third of the bound is flagged. Exits 1 when a run fails or a check
does not hold.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    listed = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    expected = {m["name"]: m for m in listed}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in expected}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            took = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            got = result["metrics"]
            if (not result["correct"] or result["failed"] != 0
                    or set(got) != set(expected)):
                ok = False
                print(f"{workload} seed {seed}: bad result {lines[-1]}")
            for name in expected:
                if name in got:
                    values[name].append(got[name]["value"])
            print(f"{workload} seed {seed}: {took:.1f} s, "
                  f"attempted {result['attempted']}", file=sys.stderr)

        print(f"\n{workload} ({args.trace=}, seeds {args.seeds})")
        print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = expected[name].get("bound")
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                if name != "setup_s" and spread >= bound:
                    ok = False
            print(f"{name:34} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6}"
                  f"{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
