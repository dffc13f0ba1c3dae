#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep-served --seeds 1-10 \
        [--seconds 20] [--trace 0] [--bounds BENCHMARK.json]

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a
share of the median; with --bounds it also prints the metric's bound
from BENCHMARK.json. Each run's result line is appended to
.bench_build/perfbench/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bounds", default=None)
    args = ap.parse_args()

    bounds = {}
    if args.bounds:
        with open(args.bounds) as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = m["bound"]

    log = os.path.join(".bench_build", "perfbench",
                       f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    values = {}
    ok = True
    for seed in seeds_of(args.seeds):
        run = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            print(f"seed {seed}: exit {run.returncode}, no result")
            ok = False
            continue
        result = json.loads(lines[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, **result}) + "\n")
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"{'metric':34} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = (statistics.quantiles(vs, n=4) if len(vs) > 1
                     else (vs[0], vs[0], vs[0]))
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name, "")
        print(f"{name:34} {len(vs):3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{share:8.4f} {bound!s:>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
