#!/usr/bin/env python3
"""softbench: the end-to-end and per-layer benchmark of softres.

Run from the root of a checkout:

    python3 softbench/run.py --workload paper_grid --seed 7 --seconds 20 --trace 0

The first call configures and builds the repository's own CMake project in
Release (into $CARGO_TARGET_DIR, default .bench_build) with the benchmark's
build file softbench/softbench.cmake injected, then runs the driver:

  --trace 0  uninstrumented batches of the workload for --seconds; prints the
             end-to-end metrics (trials_per_s, cpu_s_per_trial, peak_rss_mb)
             plus setup_s, the median of several set-up probe processes.
  --trace 1  the span run: one uninstrumented and one spanned batch, the layer
             probes and the executor-scaling fit; prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Correctness: at the default seed (42) every trial digest
must match softbench/goldens/<workload>.txt and the acceptance checks must
hold; at any other seed a subset of the trials is replayed with jobs=1 and
must reproduce the jobs=N digests.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper_grid", "think_heavy", "tune_loop")
SETUP_PROBES = 31
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"softbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configure (once) and build both drivers; returns their directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(f"no softres source tree at {ROOT}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", ROOT, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
               "-DCMAKE_PROJECT_INCLUDE=" +
               os.path.join(BENCH_DIR, "softbench.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=max(1.0, deadline - time.monotonic()))
    subprocess.run(["cmake", "--build", out, "-j", str(jobs()), "--target",
                    "softbench", "softbench_spans"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr,
                   timeout=max(1.0, deadline - time.monotonic()))
    return os.path.join(out, "softbench")


def jobs():
    """CPUs this process may run on: the parallel compile jobs."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def last_json(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    if not lines:
        raise RuntimeError("driver printed nothing")
    return json.loads(lines[-1])


def driver(binary, args, timeout):
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(binary)} {args[0]} exited "
                           f"{proc.returncode}")
    return proc.stdout


def setup_seconds(binary, workload, seed):
    """Median host time from spawning a driver to its first Testbed::run."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        out = driver(binary, ["setup", "--workload", workload, "--seed",
                              str(seed), "--t0-ns", str(t0)], 60)
        samples.append(last_json(out)["setup_s"])
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 0:
        ap.error("--seed and --seconds must be non-negative")

    try:
        bins = build(build_dir())
        common = ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds),
                  "--goldens", os.path.join(BENCH_DIR, "goldens")]
        if a.trace == 0:
            out = driver(os.path.join(bins, "softbench"), ["run"] + common,
                         RUN_TIMEOUT_S)
            result = last_json(out)
            result["metrics"]["setup_s"] = {
                "value": setup_seconds(os.path.join(bins, "softbench"),
                                       a.workload, a.seed),
                "unit": "s"}
        else:
            spans_dir = os.path.join(build_dir(), "spans")
            os.makedirs(spans_dir, exist_ok=True)
            spans = os.path.join(spans_dir, f"{a.workload}-seed{a.seed}.jsonl")
            out = driver(os.path.join(bins, "softbench_spans"),
                         ["spans"] + common + ["--spans-out", spans],
                         RUN_TIMEOUT_S)
            result = last_json(out)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log(f"error: {err}")
        return 1

    sys.stdout.write("\n".join(out.splitlines()[:-1]) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
