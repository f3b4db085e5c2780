"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (edge_roundtrip, edge_export, symmetry_detect or
connecting_map) in a fresh worker process with numpy's BLAS pool capped at
one thread, and prints one JSON object as the last line of standard
output: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones of a
traced round.  Set-up time (process start to READY: imports and input
generation) and the cold operation are medians over three fresh
processes.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PROGRAM = os.path.join(ROOT, "src", "frontalforge", "__init__.py")

WORKLOADS = ("edge_roundtrip", "edge_export", "symmetry_detect",
             "connecting_map")
TIMEOUT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "cold_op_s": "s",
    "op_p50_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, extra, deadline) -> tuple:
    """Run one worker to its end: (seconds from its start to READY, the
    JSON object on its last line)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=_worker_env(), cwd=ROOT)
    try:
        if proc.stdout.readline().strip() != "READY":
            raise RuntimeError("worker did not get ready")
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker overran the time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup, json.loads(out.strip().splitlines()[-1])


def run(args) -> dict:
    deadline = time.perf_counter() + TIMEOUT_S
    if args.trace:
        reports = [_worker(args, [], deadline)]
        main = reports[0][1]
    else:
        # set-up and the cold operation happen once per process, so two
        # more processes, one before and one after the timed loop, give
        # their medians three samples spread over the run
        reports = [_worker(args, extra, deadline)
                   for extra in (["--probe"], [], ["--probe"])]
        main = reports[1][1]
    figures = dict(main["metrics"])
    if not args.trace:
        figures["setup_s"] = statistics.median(s for s, _ in reports)
        figures["cold_op_s"] = statistics.median(
            r["metrics"]["cold_op_s"] for _, r in reports)
    correct = all(r["correct"] for _, r in reports)
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(figures)
    if missing:
        raise RuntimeError(f"worker did not report {sorted(missing)}")
    return {
        "correct": bool(correct),
        "attempted": int(main["attempted"]),
        "failed": int(main["failed"]),
        "metrics": {name: {"value": figures[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=12)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if not os.path.isfile(PROGRAM):
        print(f"program sources not found at {PROGRAM}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, ValueError, KeyError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']}, "
          f"failed = {result['failed']}, correct = {result['correct']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
