"""Spans and counters around the program's public entry points.

The tracer wraps functions and methods from outside the program: it
rebinds every module attribute and class attribute that holds the
original object, so calls through `from .curve import frenet` style
imports are caught too, and `uninstall` puts the originals back.  Spans
(name, start, end, parent) are kept in flat arrays in memory; the self
time of a span is its duration minus that of its children.
"""
from __future__ import annotations

import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# span name -> the function it wraps, as (module, qualified name)
SPANS = {
    "exprlang.eval_jet": ("frontalforge.exprlang", "MapDef.eval_jet"),
    "exprlang.eval_float": ("frontalforge.exprlang", "MapDef.__call__"),
    "exprlang.eval_grid": ("frontalforge.exprlang", "MapDef.eval_grid"),
    "exprlang.diff": ("frontalforge.exprlang", "diff"),
    "curve.frenet": ("frontalforge.curve", "frenet"),
    "germ.jet": ("frontalforge.germ", "SurfaceGerm.jet"),
    "germ.normal": ("frontalforge.germ", "NormalField.__call__"),
    "germ.distinguished_frame": ("frontalforge.germ", "distinguished_frame"),
    "normalform.from_normal_form": ("frontalforge.normalform", "from_normal_form"),
    "normalform.to_normal_form": ("frontalforge.normalform", "to_normal_form"),
    "isomer.isomer_set": ("frontalforge.isomer", "isomer_set"),
    "devfold.ist": ("frontalforge.devfold", "ist"),
    "devfold.gaussian_curvature": ("frontalforge.devfold", "gaussian_curvature"),
    "devfold.mesh": ("frontalforge.devfold", "_lattice_mesh"),
    "devfold.write_obj": ("frontalforge.devfold", "write_obj"),
    "match.closest_image_point": ("frontalforge.match", "closest_image_point"),
    "match.connecting_map": ("frontalforge.match", "connecting_map"),
    "symmetry.detect_symmetries": ("frontalforge.symmetry", "detect_symmetries"),
    "symmetry.validate_findings": ("frontalforge.symmetry", "validate_findings"),
    "symmetry.connecting_involution": ("frontalforge.symmetry",
                                       "connecting_involution"),
}
# counted, never spanned: they run once per expression node or per product
COUNTS = {
    "exprlang.node_visits": ("frontalforge.exprlang", "evaluate"),
    "numkit.series_mul.calls": ("frontalforge.numkit", "Series.__mul__"),
}
LIFT_SPAN = "match.lift"
LIFT_FACTORY = ("frontalforge.match", "legendrian_lift")
OP_SPAN = "op"

LAYERS = ("exprlang", "curve", "germ", "normalform", "isomer", "devfold",
          "match", "symmetry")

#: per-layer metric -> unit, as the traced run reports them
PER_LAYER = {}
for _name in list(SPANS) + [LIFT_SPAN]:
    PER_LAYER[_name + ".calls"] = "count"
    PER_LAYER[_name + ".s"] = "s"
PER_LAYER.update({
    "exprlang.eval_grid.points": "count",
    "exprlang.node_visits": "count",
    "exprlang.tree_nodes": "count",
    "exprlang.unique_nodes": "count",
    "numkit.series_mul.calls": "count",
    "devfold.write_obj.bytes": "B",
})
for _layer in LAYERS + ("other",):
    PER_LAYER[_layer + ".self_s"] = "s"
PER_LAYER.update({"trace.untraced_s": "s", "trace.overhead_s": "s",
                  "trace.spans": "count"})


def _resolve(module: str, qualname: str):
    obj = sys.modules[module]
    owner = None
    for part in qualname.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patches: list = []

    # -- recording ----------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, count_points=None, count_bytes=None):
        nid = self._nid(name)
        names, starts, ends, parents = (self.name_id, self.start, self.end,
                                        self.parent)
        stack, counts, clock = self.stack, self.counts, time.perf_counter
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            counts[calls] += 1
            if count_points is not None:
                counts[name + ".points"] += count_points(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if count_bytes is not None:
                    counts[name + ".bytes"] += count_bytes(*args, **kwargs)

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------------

    def _modules(self):
        return [m for n, m in sys.modules.items()
                if n == "frontalforge" or n.startswith("frontalforge.")]

    def _rebind(self, original, replacement, owner):
        """Point every binding of `original` in the program's modules, and
        in the owning class, at `replacement`."""
        holders = self._modules()
        if isinstance(owner, type):
            holders = holders + [owner]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, attr, replacement)
                    self._patches.append((holder, attr, original))

    def install(self) -> None:
        for name, (mod, qual) in SPANS.items():
            owner, fn = _resolve(mod, qual)
            points = _grid_points if name == "exprlang.eval_grid" else None
            nbytes = _obj_bytes if name == "devfold.write_obj" else None
            if name == "exprlang.diff":
                wrapped = self._outermost(self.spanned(name, fn), fn)
            else:
                wrapped = self.spanned(name, fn, points, nbytes)
            self._rebind(fn, wrapped, owner)
        for name, (mod, qual) in COUNTS.items():
            owner, fn = _resolve(mod, qual)
            self._rebind(fn, self.counted(name, fn), owner)
        owner, factory = _resolve(*LIFT_FACTORY)

        def lift_factory(obj):
            return self.spanned(LIFT_SPAN, factory(obj))

        self._rebind(factory, lift_factory, owner)

    def _outermost(self, spanned, plain):
        """Span only the outermost call of a recursive function."""
        depth = [0]

        def wrapper(*args, **kwargs):
            if depth[0]:
                return plain(*args, **kwargs)
            depth[0] += 1
            try:
                return spanned(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- summary --------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name, in seconds."""
        n = len(self.start)
        if not n:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=n)
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32))


def _grid_points(self, arrays) -> int:
    return int(np.broadcast(*[np.asarray(v) for v in arrays.values()]).size)


def _obj_bytes(mesh, path) -> int:
    return os.path.getsize(path)


def expression_sizes(exprs) -> tuple:
    """(tree nodes, distinct nodes) of expression trees that may share
    subtrees; nodes are told apart by identity."""
    memo: dict[int, int] = {}

    def size(e) -> int:
        key = id(e)
        if key in memo:
            return memo[key]
        total = 1
        for attr in ("operand", "left", "right", "arg"):
            child = getattr(e, attr, None)
            if child is not None:
                total += size(child)
        memo[key] = total
        return total

    trees = sum(size(e) for e in exprs)
    return trees, len(memo)
