#!/usr/bin/env python3
"""Checks that the benchmark is steady across seeds.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [--workload W ...]

Run it from the repository root; `python3 -m doctest perfbench/steady.py`
tests the spread helper.  For each workload it makes --runs untraced
runs, each with its own seed and BENCHMARK.json's run_seconds, and prints for
every end-to-end metric the median, the spread (the distance between the
first and third quartiles as statistics.quantiles(values, n=4) gives them,
over the median) and the metric's bound.  It exits non-zero when any
spread exceeds its bound or a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    """Interquartile distance over the median.

    >>> spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])  # quartiles 2.75 and 8.25
    1.0
    >>> spread([10.0, 10.0, 10.0, 10.0])
    0.0
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
            if not result or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed\n{done.stderr[-2000:]}")
                ok = False
                continue
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload} ({args.runs} runs of {args.seconds:g} s)")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            s = spread(v)
            flag = "" if s <= m["bound"] else "  OVER BOUND"
            ok &= not flag
            print(f"  {m['name']:<14} median {statistics.median(v):<14.6g} spread {s:6.3f}"
                  f"  bound {m['bound']}{flag}   [{', '.join(f'{x:.4g}' for x in v)}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
