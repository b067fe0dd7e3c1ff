#!/usr/bin/env python3
"""Runs one workload on several seeds and prints, per metric, the median
and the quartile spread (the distance between the first and third
quartile as a share of the median) next to the bound BENCHMARK.json
sets. Also prints the share of failed operations.

    python3 perfbench/spread.py --workload verify-registry [--runs 10]
        [--first-seed 1] [--seconds <run_seconds>] [--trace 0]

Run it from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values, failed, attempted = {}, 0, 0
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", str(a.seconds), "--trace", a.trace]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: WRONG ANSWERS", file=sys.stderr)
        failed += result["failed"]
        attempted += result["attempted"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    print(f"{a.workload}: {a.runs} runs of {a.seconds} s, failed {failed}/{attempted}")
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print(f"  {name:28s} median {med:12.6g}  spread {spread:7.3f}  bound {bound}  {verdict}")


if __name__ == "__main__":
    main()
