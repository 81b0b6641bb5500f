#!/usr/bin/env python3
"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the worker (acebench.cpp in
this directory) with CMake into the subdirectory perfbench of
$CARGO_TARGET_DIR, or of .bench_build when that is unset, and then runs one
iteration per worker process until S seconds
have passed.  Every iteration's output is checked; an iteration that fails
its check, crashes, exits nonzero or hangs counts in `failed`.  A summary
goes to stdout, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, each the median over
the iterations.  --trace 1 alternates untraced and traced iterations and
reports its per_layer metrics: medians over the traced iterations, plus the
tracing overhead against the untraced ones.  README.md explains the
workloads and every metric.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("em3d-sc-proc", "em3d-static-thread", "miglock-sc-thread",
             "kernels-dc-thread")
# Iteration i of a run with seed S runs on input seed INPUTS*S + i % INPUTS:
# each run's medians cover several EM3D graphs, so one unusual graph does not
# move a run's figures.
INPUTS = 8
# A hung iteration is killed after this long; the worker's own deadlock
# watchdog fires after 30 s.
ITER_TIMEOUT_S = 40
# No iteration starts this long after the first one (the warm-up) started,
# whatever --seconds asks, so even a run whose iterations all hang ends
# inside three minutes.
RUN_CAP_S = 100
MIN_ITERS = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    """The benchmark's own build tree, inside the shared build-output
    directory: the only directory the benchmark ever removes."""
    outputs = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    return os.path.join(os.path.abspath(outputs), "perfbench")


def configured_from(cache):
    """The source directory a CMake cache was configured from."""
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build():
    """Configure (once) and build the worker; return its path."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache) and os.path.realpath(
            configured_from(cache) or "") != os.path.realpath(HERE):
        shutil.rmtree(bdir)  # ours, but configured from another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = max(1, min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "acebench",
                  "-j", str(jobs)])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "acebench")


def stop_group(proc):
    """Kill and wait for the worker and any rank it left behind: the
    process backend forks its ranks into the worker's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(1000):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_worker(exe, args):
    """Run one worker process; return its JSON record, or None when it
    crashed, exited nonzero, hung or printed no record."""
    proc = subprocess.Popen([exe] + args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=ITER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
        log("perfbench: iteration timed out:", " ".join(args))
    finally:
        stop_group(proc)
    if out is None or proc.returncode != 0:
        return None
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def measure(exe, workload, seed, seconds, trace):
    """Run the workload's iterations.  Returns (attempted, failed, records),
    records holding a (traced, record) pair per iteration that passed."""
    tally = {"attempted": 0, "failed": 0}
    t_first = time.monotonic()

    def attempt(args):
        tally["attempted"] += 1
        rec = run_worker(exe, ["--workload=" + workload] + args)
        if rec is None or not rec.get("ok"):
            tally["failed"] += 1
            log("perfbench: iteration failed:",
                rec["why"] if rec else "no record", args)
            return None
        return rec

    # Warm-up (binary and page cache): checked, not measured.
    attempt(["--seed=%d" % (INPUTS * seed), "--trace=0"])

    records = []
    start = time.monotonic()
    i = 0
    while True:
        traced = bool(trace) and i % 2 == 1
        rec = attempt(["--seed=%d" % (INPUTS * seed + i % INPUTS),
                       "--trace=%d" % traced])
        if rec is not None:
            records.append((traced, rec))
        i += 1
        now = time.monotonic()
        min_iters = MIN_ITERS * (2 if trace else 1)
        enough = now - start >= seconds and i >= min_iters
        if enough or now - t_first >= RUN_CAP_S:
            break
    return tally["attempted"], tally["failed"], records


def median(values):
    return float(statistics.median(values)) if values else 0.0


def end_to_end(spec, records):
    plain = [r for traced, r in records if not traced]
    return {m["name"]: {"value": median([r[m["name"]] for r in plain]),
                        "unit": m["unit"]}
            for m in spec["end_to_end"]}


def per_layer(spec, records):
    """Medians over the traced iterations.  A layer that does not run on
    this workload reports 0."""
    traced = [r for t, r in records if t]
    plain_wall = median([r["wall_s"] for t, r in records if not t])
    traced_wall = median([r["wall_s"] for r in traced])
    overhead = {"trace.overhead_s": traced_wall - plain_wall,
                "trace.overhead_frac":
                    traced_wall / plain_wall - 1.0 if plain_wall else 0.0}
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        value = overhead[name] if name in overhead else median(
            [r["layers"].get(name, 0) for r in traced])
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_facts(record):
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "compiler": record.get("compiler", "unknown"),
            "build_type": record.get("build_type", "unknown"),
            "git": git_sha()}


def summarize(args, attempted, failed, records, metrics):
    recs = [r for _, r in records]
    print("perfbench %s seed=%d seconds=%g trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(host_facts(recs[0] if recs else {})))
    print("iterations: %d attempted, %d failed (fail_frac %.3f), %d measured"
          % (attempted, failed, failed / attempted if attempted else 1.0,
             len(recs)))
    print("checksum_bits over the inputs: " +
          " ".join(sorted({r["checksum_bits"] for r in recs})))
    if not args.trace:
        plain = [r for t, r in records if not t]
        for name in metrics:
            vals = sorted(r[name] for r in plain)
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            print("  %-12s median %-14.9g q1 %-14.9g q3 %-14.9g n=%d"
                  % (name, median(vals), q[0], q[2], len(vals)))
    else:
        for name, m in metrics.items():
            print("  %-28s %-16.9g %s" % (name, m["value"], m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    exe = build()
    attempted, failed, records = measure(exe, args.workload, args.seed,
                                         args.seconds, args.trace)
    metrics = (per_layer if args.trace else end_to_end)(spec, records)
    summarize(args, attempted, failed, records, metrics)
    print(json.dumps({"correct": failed == 0 and bool(records),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
