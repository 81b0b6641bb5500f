#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 1]
                                [--out perfbench/results/NAME.json]

Runs perfbench/run.py ten times on every workload of BENCHMARK.json for its
run_seconds, each run with its own seed (first-seed, first-seed+1, ...),
from the root of the checkout.  For every
end-to-end metric it prints the median of the runs' values and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of that median, next to the metric's bound in BENCHMARK.json.  A
spread under a third of the bound counts as steady; setup_s is judged by its
median alone.  --out also writes the runs, the spreads and the host facts
as a results file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def one_run(workload, seed, seconds):
    """One run.py invocation; returns (result line, host facts, seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.strip().splitlines()
    host = next((json.loads(line[len("host: "):]) for line in out
                 if line.startswith("host: ")), {})
    return json.loads(out[-1]), host, time.monotonic() - t0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    doc = {"seconds": seconds, "host": {}, "workloads": {}}
    all_steady = True
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for k in range(RUNS):
            seed = args.first_seed + k
            res, host, took = one_run(workload, seed, seconds)
            doc["host"] = host
            runs.append({"seed": seed, "took_s": round(took, 1), **res})
            print("%s seed=%d correct=%s %d/%d failed, %.0f s" %
                  (workload, seed, res["correct"], res["failed"],
                   res["attempted"], took), flush=True)
        spread = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            frac = (q[2] - q[0]) / med if med else float("inf")
            steady = m["name"] == "setup_s" or frac < m["bound"] / 3
            all_steady &= steady and all(r["correct"] for r in runs)
            spread[m["name"]] = {"median": med, "q1": q[0], "q3": q[2],
                                 "iqr_frac": frac, "bound": m["bound"],
                                 "steady": steady}
            print("  %-12s median %-14.9g iqr/median %.4f  bound %.2f  %s" %
                  (m["name"], med, frac, m["bound"],
                   "steady" if steady else "NOT STEADY"), flush=True)
        doc["workloads"][workload] = {"spread": spread, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(0 if all_steady else 1)


if __name__ == "__main__":
    main()
