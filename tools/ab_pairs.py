"""Alternating parent/change pairs of benchmark runs.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --seeds A-B --seconds S

PARENT and CHANGE are two checkouts of the repository.  W is a workload,
a comma-separated list of them, or `all`, the workloads of CHANGE's
BENCHMARK.json.  For each workload and every seed from A to B the script
runs `bench/run.py` once in each checkout, on the same seed and run
length, alternating which checkout goes first (the parent first on the
first pair).  It prints every run's end-to-end metrics, then per metric
each side's median and quartiles, how many pairs the change won (ties
count for neither side), whether the change's gain meets the rule for
claiming one (it wins at least nine tenths of the pairs, and the medians
differ by more than the distance between the quartiles of the parent's
runs), and a no-regression verdict under the metric's bound, a fraction
of the parent's median:

- `worse`: the change's median is worse than the parent's by more than
  the bound;
- `unresolved`: the parent's quartile distance exceeds the bound, and not
  every run of the change is better than every run of the parent;
- `ok`: otherwise.

Whether a metric is better lower or higher, and its bound, come from the
end-to-end list of CHANGE's BENCHMARK.json.  The runs get
PYTHONDONTWRITEBYTECODE, and an empty `bench/out/` that a run leaves in a
checkout that had none is removed again, so neither checkout is left
changed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(first quartile, median, third quartile) of the values, by linear
    interpolation between order statistics."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent, change, higher_is_better=()):
    """Per metric, from two equal-length lists of runs (dicts of metric
    name -> value, pair i being parent[i] and change[i]): the quartiles of
    each side, the pairs the change won and lost, the median's gain (in
    the better direction), whether every run of the change is better than
    every run of the parent, and whether the gain meets the claim rule
    (wins >= 0.9 of the pairs and the medians differ by more than the
    parent's interquartile distance, in the better direction)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs per side")
    out = {}
    for name in parent[0]:
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1.0 if name in higher_is_better else -1.0
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        losses = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        pq, cq = quartiles(p), quartiles(c)
        gain = sign * (cq[1] - pq[1])
        out[name] = {
            "parent": pq, "change": cq, "wins": wins, "losses": losses,
            "pairs": len(p), "gain": gain,
            "beats_all": min(sign * b for b in c) > max(sign * a for a in p),
            "claim": wins >= 0.9 * len(p) and gain > pq[2] - pq[0],
        }
    return out


def verdict(s, bound):
    """The no-regression verdict of one metric's summary s under its
    bound, a fraction of the parent's median: 'worse', 'unresolved' or
    'ok' (see the module docstring)."""
    q1, median, q3 = s["parent"]
    if s["gain"] < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not s["beats_all"]:
        return "unresolved"
    return "ok"


def _spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(checkout, workload, seed, seconds):
    """One `bench/run.py` run in the checkout: its parsed last line."""
    out_dir = os.path.join(checkout, "bench", "out")
    had_out = os.path.isdir(out_dir)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("bench", "run.py"), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True)
    finally:
        if not had_out and os.path.isdir(out_dir) and not os.listdir(out_dir):
            os.rmdir(out_dir)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: benchmark exited with code "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _seeds(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def _pairs(args, workload):
    """The runs of each side on one workload, or None when a run failed."""
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            try:
                result = run_once(sides[side], workload, seed, args.seconds)
            except RuntimeError as err:
                print(err, file=sys.stderr)
                return None
            metrics = {k: m["value"] for k, m in result["metrics"].items()}
            runs[side].append(metrics)
            print(f"{workload} seed {seed} {side}: correct "
                  f"{result['correct']}, failed {result['failed']} of "
                  f"{result['attempted']}, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in metrics.items()),
                  flush=True)
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", required=True,
                   help="a workload, a comma-separated list, or all")
    p.add_argument("--seeds", required=True, type=_seeds,
                   help="seed range A-B, one pair per seed")
    p.add_argument("--seconds", type=int, default=12)
    args = p.parse_args(argv)
    spec = _spec(args.change)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    higher = tuple(n for n, m in metrics.items() if m["better"] == "higher")
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else args.workload.split(","))
    for workload in workloads:
        runs = _pairs(args, workload)
        if runs is None:
            return 2
        summary = summarize(runs["parent"], runs["change"], higher)
        print(f"{workload}: median (quartiles), parent -> change")
        for name, s in summary.items():
            (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
            print(f"  {name}: {p2:.4g} ({p1:.4g}-{p3:.4g}) -> {c2:.4g} "
                  f"({c1:.4g}-{c3:.4g}); change won {s['wins']}, lost "
                  f"{s['losses']} of {s['pairs']}; claim "
                  f"{'met' if s['claim'] else 'not met'}; verdict "
                  f"{verdict(s, metrics[name]['bound'])}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
