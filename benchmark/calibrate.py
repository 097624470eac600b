#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the acceptance rule
measures it: N runs per workload, each with another --seed; spread = distance
between the first and third quartile (statistics.quantiles(values, n=4)) as a
share of the median. A metric is steady when its spread is below a third of
its bound in BENCHMARK.json.

    python3 benchmark/calibrate.py [--runs 10] [--first-seed 1] [--workload NAME]...

Run from the repository root. Exits 1 if any spread (setup_s excepted, as in
the rule) reaches its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    over = False
    print(f"{'workload':<18} {'metric':<18} {'median':>14} {'spread':>8} {'bound':>7} {'bound/3':>8}  verdict")
    for w in workloads:
        values = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t = time.time()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            walls.append(time.time() - t)
            result = json.loads(out.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, (w, seed, result)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            if spread < bound / 3:
                verdict = "steady"
            elif spread < bound or name == "setup_s":
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                over = True
            print(f"{w:<18} {name:<18} {med:>14.4f} {spread:>7.2%} {bound:>7.0%} {bound / 3:>7.2%}  {verdict}")
        print(f"{w:<18} wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        sys.stdout.flush()
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
