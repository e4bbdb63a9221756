#!/usr/bin/env python3
"""Steadiness check: run one workload N times with different seeds and
print, per metric, the median, the quartiles and the spread (quartile
distance over the median) against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>] [--trace 0|1] [--verbose]

Run from the repository root. Exits non-zero when a run fails, reads
incorrect, or the share of failed operations differs between runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--verbose", action="store_true", help="print every run's value")
    a = p.parse_args()

    values, shares, ok = {}, set(), True
    for i in range(a.runs):
        seed = a.first_seed + i
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(a.seconds), "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"]
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        if a.verbose:  # the diagnostic "# metric" and "# note" lines too
            for line in lines:
                if line.startswith(("# metric ", "# note ")) and " = " in line:
                    name, v = line.split(" ", 2)[2].split(" = ")
                    if name not in result["metrics"]:
                        values.setdefault("(" + name + ")", []).append(float(v))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"\n{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else ("ok" if spread <= bound / 3 else
                                         ("within" if spread <= bound else "WIDE"))
        b = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<34} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {b:>6} {flag}")
        if a.verbose:
            print("    " + " ".join(f"{x:.4g}" for x in v))
    if not ok or len(shares) > 1:
        print(f"correct={ok}, failed shares seen: {sorted(shares)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
