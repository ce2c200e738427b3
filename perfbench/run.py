#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run of one workload (the last line of output is the JSON result):

    python3 perfbench/run.py --workload ha_fabric --seed 1 --seconds 20 --trace 0

Every metric of every workload in BENCHMARK.json, end to end and per layer,
by name with its unit and sample count; exits 1 when any operation failed or
answered wrong:

    python3 perfbench/run.py --report [--seed 1] [--seconds 20]

The benchmark is built from source with dune inside the checkout; the build
fails, and no result is printed, when the library sources are missing.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def build():
    # no shared build cache: the build reads and writes inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(ROOT, ".perfbench-out", "cache"))
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")


def run(args, capture=False):
    return subprocess.run(
        [EXE] + args, cwd=ROOT, stdout=subprocess.PIPE if capture else None, text=True
    )


def report(seed, seconds):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"] if seconds is None else seconds
    bad = 0
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            proc = run(
                ["--workload", w["name"], "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", trace],
                capture=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w['name']}: run failed (exit {proc.returncode})")
                bad += 1
                continue
            result = json.loads(lines[-1])
            for line in lines[:-1]:
                print(f"{w['name']:<12} {line}")
            if trace == "0":  # traced runs list error_rate among their metrics
                rate = result["failed"] / result["attempted"]
                print(f"{w['name']:<12} {'error_rate':<32} {rate:16.6f} ratio  "
                      f"samples={result['attempted']}")
            if result["failed"] > 0 or not result["correct"]:
                bad += 1
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    p.add_argument("--report", action="store_true")
    a = p.parse_args()
    build()
    if a.report:
        sys.exit(report(a.seed, a.seconds))
    if not a.workload or a.seconds is None:
        p.error("--workload and --seconds are required")
    sys.exit(run(["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", a.trace]).returncode)


if __name__ == "__main__":
    main()
