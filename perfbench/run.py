#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  It builds the benchmark package in
perfbench/ (release profile, into $CARGO_TARGET_DIR or .bench_build),
prints a machine stamp, and runs one workload.  The last line of standard
output is the workload's JSON result; build output and diagnostics go to
standard error.  A traced run (--trace 1) also writes its spans under
<target dir>/perfbench-spans/.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The benchmark must exit within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def machine_stamp():
    cpu = "unknown"
    for line in read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "rustc": output(["rustc", "--version"]),
        "clocksource": read("/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        "commit": output(["git", "rev-parse", "HEAD"]),
        "features": "default (telemetry)",
        "profile": "release (thin LTO)",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    print("# stamp: " + json.dumps(machine_stamp(), sort_keys=True), flush=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        cmd += ["--spans", str(target / "perfbench-spans" / f"{args.workload}.tsv")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
