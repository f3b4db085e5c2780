"""One workload in one process: set up, run whole rounds, report.

Started by run.py, which measures set-up time from outside: this process
prints READY once its imports and inputs are done.  With --probe it then
runs the cold operation alone and exits.  The last line of its standard
output is a JSON object with the raw figures, which run.py turns into the
benchmark's result.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from oracles import CheckFailure  # noqa: E402

#: rounds drawn up front; a longer run reuses them in order
PLANNED_ROUNDS = 64


class Runner:
    def __init__(self, workload: str, seed: int, outdir: str):
        rng = np.random.default_rng(seed)
        self.rounds = [workloads.make_round(workload, rng, k, outdir)
                       for k in range(PLANNED_ROUNDS)]
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def attempt(self, op, wrap=None):
        """Run one operation; returns (latency or None, output)."""
        self.attempted += 1
        run = wrap(op.run) if wrap else op.run
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            if not op.expect_failure:
                print(f"operation {op.kind} failed: {type(exc).__name__}: "
                      f"{exc}", file=sys.stderr)
            return None, None
        latency = time.perf_counter() - t0
        try:
            op.check(out)
        except CheckFailure as exc:
            self.correct = False
            print(f"check failed on {op.kind}: {exc}", file=sys.stderr)
        return latency, out

    def run_round(self, ops, wrap=None):
        return [self.attempt(op, wrap) for op in ops]


def measure(runner: Runner, seconds: float) -> dict:
    """Whole rounds until `seconds` have passed since the first operation,
    which is the cold one.  Throughput counts every round, the cold
    operation included, so it does not depend on how many rounds fit."""
    latencies = []
    t_start = time.perf_counter()
    k = 0
    while True:
        for op in runner.rounds[k % PLANNED_ROUNDS]:
            latency, _ = runner.attempt(op)
            if latency is not None:
                latencies.append(latency)
        k += 1
        if time.perf_counter() - t_start >= seconds:
            break
    elapsed = time.perf_counter() - t_start
    if len(latencies) < 2:
        raise RuntimeError("too few successful operations to time")
    return {
        "cold_op_s": latencies[0],
        "op_p50_s": statistics.median(latencies[1:]),
        "ops_per_s": len(latencies) / elapsed,
    }


def probe(runner: Runner) -> dict:
    """The cold operation alone, in a process of its own."""
    latency, _ = runner.attempt(runner.rounds[0][0])
    if latency is None:
        raise RuntimeError("the cold operation failed")
    return {"cold_op_s": latency}


def traced(runner: Runner, workload: str, seed: int) -> dict:
    """The first round twice untraced (cold, then warm), then once traced;
    the traced round gives the per-layer figures."""
    ops = runner.rounds[0]
    runner.run_round(ops)
    t0 = time.perf_counter()
    runner.run_round(ops)
    untraced_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        results = runner.run_round(
            ops, wrap=lambda fn: tracer.spanned(tracing.OP_SPAN, fn))
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    tree = unique = 0
    for op, (_, out) in zip(ops, results):
        if out is not None:
            t, u = tracing.expression_sizes(op.exprs(out))
            tree, unique = tree + t, unique + u
    tracer.write(os.path.join(OUT, f"trace-{workload}-seed{seed}.npz"))
    own = tracer.self_times()
    figures = dict(tracer.counts)
    for name in own:
        figures[name + ".s"] = own[name]
    for layer in tracing.LAYERS:
        figures[layer + ".self_s"] = sum(
            v for k, v in own.items() if k.split(".")[0] == layer)
    figures.update({
        "exprlang.tree_nodes": tree, "exprlang.unique_nodes": unique,
        "other.self_s": own.get(tracing.OP_SPAN, 0.0),
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.spans": len(tracer.start),
    })
    return {name: figures.get(name, 0) for name in tracing.PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, required=True, choices=(0, 1))
    p.add_argument("--probe", action="store_true",
                   help="set up and time the cold operation only")
    args = p.parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(args.workload, args.seed, tmp)
        print("READY", flush=True)
        try:
            if args.probe:
                metrics = probe(runner)
            elif args.trace:
                metrics = traced(runner, args.workload, args.seed)
            else:
                metrics = measure(runner, args.seconds)
        except Exception:
            traceback.print_exc()
            return 2
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"correct": runner.correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
