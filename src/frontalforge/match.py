"""Lifts, image-inclusion tests, connecting maps, and properness probes.

The central object is the lift L_f = (f, nu) pairing a frontal map with its
unit normal.  When the image of f1 sits inside the image of f2 and the lift
of f2 is injective, the connecting map psi with f1 = f2 o psi and
nu1 = e * nu2 o psi (e a global sign) is recovered numerically by nearest
neighbor seeding and a damped Gauss-Newton polish of the lift distance,
batched over all samples on the expression tape's grid path.  The same
batched polish of the image distance, `closest_image_point`, serves the
image-inclusion test and the symmetry detector.  The
properness probe counts preimage components of f(p) in shrinking
neighborhoods on refined grids; it is a heuristic falsifier, not a proof.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.spatial import cKDTree

from . import exprlang as ex
from .germ import _Frontal
from .numkit import Interval, damped_gauss_newton

__all__ = [
    "LiftSample", "ConnectingMap", "PropernessReport", "PlaneMap",
    "legendrian_lift", "connecting_map", "properness_probe", "MatchError",
    "InclusionError", "LiftInjectivityError", "ResidualError", "ProbeError",
]


class MatchError(Exception):
    pass


class InclusionError(MatchError):
    pass


class LiftInjectivityError(MatchError):
    pass


class ResidualError(MatchError):
    pass


class ProbeError(MatchError):
    pass


@dataclass(frozen=True)
class LiftSample:
    x: tuple
    fx: np.ndarray
    nu: np.ndarray


class PlaneMap(_Frontal):
    """One-variable expression map into the plane, with a continuous unit
    normal: its `NormalField`, the 90-degree rotation of the tangent,
    extended through cusps and anchored at the right end of the domain.
    """

    def __init__(self, map_, domain: Interval, name: str = "plane_map"):
        if not isinstance(map_, ex.MapDef):
            raise MatchError(f"plane map '{name}' needs an expression map, "
                             f"not {type(map_).__name__}")
        domain = domain if isinstance(domain, Interval) else Interval(*domain)
        super().__init__(map_, domain, (domain.hi,), None, name)

    def __call__(self, t) -> np.ndarray:
        t = float(t) if np.isscalar(t) or np.ndim(t) == 0 else float(t[0])
        return np.asarray(self.map((t,)), dtype=float)


def legendrian_lift(obj):
    """Lift sampler x -> LiftSample(x, f(x), nu(x)).

    Accepts a SurfaceGerm (normal from its frontal normal field), the lift
    of T o f for an isometry T (symmetry's transformed germ), or a
    PlaneMap (normal of the plane curve extended through cusps).  Each
    sample is one row of the object's batched `lift_points`.
    """
    dim = len(_domain_of(obj))

    def lift(point):
        x = np.atleast_1d(np.asarray(point, dtype=float))[:dim]
        F, nu = obj.lift_points(x[None])
        return LiftSample(tuple(float(c) for c in x), F[0], nu[0])

    return lift


# ---------------------------------------------------------------- evaluation

def _domain_of(obj):
    """The domain of a liftable object, as a tuple of intervals."""
    if isinstance(obj, PlaneMap):
        return (obj.domain,)
    if hasattr(obj, "lift_points"):  # a SurfaceGerm or the lift of T o f
        return obj.domain
    raise MatchError(f"cannot lift object of type {type(obj).__name__}")


def _sample_grid(domain, n) -> np.ndarray:
    """n samples of a 1-D domain, (n, 1), or the u-major m x m grid of a
    2-D one, (m*m, 2), with m = max(2, isqrt(n))."""
    if len(domain) == 1:
        return domain[0].grid(n)[:, None]
    m = max(2, math.isqrt(n))
    us, vs = domain[0].grid(m), domain[1].grid(m)
    return np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)


def closest_image_point(obj, domain, targets, tree, xs, corner=None,
                        tol: float = 0.0):
    """Distance from each target to the image of obj over domain, and the
    nearest point x found: for G groups of n targets, (G, n, m), ((G, n),
    (G, n, d)).  Each target is polished from the 4 samples xs whose
    images, held in tree, lie nearest to it, in one damped Gauss-Newton on
    `obj.points`, the tape's grid path for expression maps.  With
    `corner`, a group that the sample net shows cannot reach tol is
    dropped before the solve (`_polish`)."""
    x, dist = _polish(obj.points, np.asarray(targets, dtype=float), tree, xs,
                      domain, iters=30, corner=corner, tol=tol)
    return dist, x


def _polish(fn, targets, tree, xs, domain, iters: int, corner=None,
            tol: float = 0.0):
    """Minimize |fn(x) - target| for each of the n targets of G groups,
    (G, n, m), from the 4 samples xs whose values fn(xs), held in tree,
    lie nearest to it (a multi-sheeted image can strand a single seed on
    the wrong sheet).  Returns each target's best (x, residual), as
    (G, n, d) and (G, n).

    With `corner`, a mask of a group's n targets, xs must be a
    `_sample_grid` of domain: every value of fn on the domain then lies
    within the net radius r(s) of some sample s (`_net_radii`, to first
    order).  A group is dropped at seeding when one of its corner targets
    lies farther than r(s) + 2 tol from every sample s, and so farther
    than 2 tol from every value of fn: no residual of that target can
    fall below tol, and no x can pass a test that bounds its image and
    normal parts each by tol (together at most sqrt(2) tol).  The group's
    corner targets read their nearest sample and its distance, its other
    targets x NaN and residual inf.  Every kept group is polished whole,
    in one solver call; solver rows evolve independently, so each target
    ends as in a solve of its own.  When every group is dropped, the
    solver gets no row."""
    G, n, m = targets.shape
    k = min(4, tree.n)
    corner = np.zeros(n, dtype=bool) if corner is None else corner
    dist = np.empty((G, n, k))
    idx = np.empty((G, n, k), dtype=int)
    dist[:, corner], idx[:, corner] = (
        np.reshape(a, (G, -1, k)) for a in tree.query(targets[:, corner], k=k))
    keep = (_near_samples(tree, len(domain), targets[:, corner],
                          dist[:, corner], idx[:, corner], 2 * tol)
            if corner.any() else np.ones(G, dtype=bool))
    rest = keep[:, None] & ~corner
    if rest.any():
        dist[rest], idx[rest] = (np.reshape(a, (-1, k))
                                 for a in tree.query(targets[rest], k=k))
    out_x = np.full((G, n, len(domain)), np.nan)
    out_res = np.full((G, n), np.inf)
    gone = ~keep[:, None] & corner
    out_x[gone], out_res[gone] = xs[idx[gone, 0]], dist[gone, 0]
    lo = np.array([d.lo for d in domain])
    hi = np.array([d.hi for d in domain])
    x, res, _ = damped_gauss_newton(
        fn, np.repeat(targets[keep].reshape(-1, m), k, axis=0),
        xs[idx[keep].reshape(-1)], lo, hi, iters)
    x, res = _best_seeds(x, res, k)
    out_x[keep] = x.reshape(-1, n, len(domain))
    out_res[keep] = res.reshape(-1, n)
    return out_x, out_res


def _near_samples(tree, dim: int, targets, dist, idx, slack: float):
    """Per group of targets, (G, c, m), whether each of its targets lies
    within r(s) + slack of some sample s of the `_sample_grid` held in
    tree (`_net_radii`).  dist and idx, (G, c, k), are the targets' k
    nearest samples: a target is near when one of them is, and else only
    a sample s with r(s) + slack at least its nearest distance can be.
    A group's other targets are tried farthest first (they have the
    fewest such samples), until one fails."""
    r = _net_radii(tree, dim)
    near = (dist <= r[idx] + slack).any(axis=-1)
    keep = near.all(axis=1)

    def reaches(t, d):
        s = np.flatnonzero(r + slack >= d)
        return np.any(np.linalg.norm(tree.data[s] - t, axis=1) <= r[s] + slack)

    for g in np.flatnonzero(~keep):
        rest = np.flatnonzero(~near[g])
        rest = rest[np.argsort(-dist[g, rest, 0])]
        keep[g] = all(reaches(targets[g, c], dist[g, c, 0]) for c in rest)
    return keep


def _net_radii(tree, dim: int) -> np.ndarray:
    """The net radius r(s) of each sample s of a `_sample_grid` over a
    dim-dimensional domain, held in tree in sample order (`tree.data`
    keeps it): the largest, over the grid cells with s as a corner, of
    the cell's longest step between adjacent samples, summed over the
    grid axes.  To first order every value of the map on a cell lies
    within that sum of each of the cell's corners."""
    m = tree.n if dim == 1 else math.isqrt(tree.n)
    assert m ** dim == tree.n, "the samples are no _sample_grid"
    # one grid per coordinate, each contiguous
    net = np.ascontiguousarray(tree.data.T).reshape((-1,) + (m,) * dim)
    cell = 0.0
    for a in range(dim):
        step = np.sum(np.diff(net, axis=a + 1) ** 2, axis=0)
        for b in set(range(dim)) - {a}:  # the longer of two edges along a
            step = np.moveaxis(step, b, 0)
            step = np.moveaxis(np.maximum(step[1:], step[:-1]), 0, b)
        cell = cell + np.sqrt(step)
    r = np.zeros((m,) * dim)
    for shift in product((0, 1), repeat=dim):  # the cells around a sample
        view = r[tuple(slice(j, m - 1 + j) for j in shift)]
        np.maximum(view, cell, out=view)
    return r.reshape(-1)


def _best_seeds(x, res, k: int):
    """Per target, the best of its k consecutive solver rows: (x,
    residual), a NaN residual counting as inf."""
    res = np.where(np.isnan(res), np.inf, res).reshape(-1, k)
    best = np.argmin(res, axis=1)
    rows = np.arange(len(res))
    return x.reshape(len(res), k, x.shape[1])[rows, best], res[rows, best]


# ------------------------------------------------------------ connecting map

@dataclass
class ConnectingMap:
    """Numeric psi with f1 = f2 o psi and nu1 = e * nu2 o psi, sampled:
    row k of samples_out is psi at row k of samples_in."""

    samples_in: np.ndarray
    samples_out: np.ndarray
    sign: int
    residual_image: float
    residual_normal: float
    solver: object = field(repr=False, default=None)  # X -> (psi, residuals)
    tol: float = 1e-6

    def __call__(self, x):
        """psi at one point, or at each row of an (N, d) array, polished
        like the samples: `ResidualError` names the first point whose
        image or normal residual exceeds the map's tol (`solver` returns
        psi with the image and normal residuals of each row, unchecked)."""
        X = np.asarray(x, dtype=float)
        d = self.samples_in.shape[1]
        rows = X if X.ndim == 2 else np.atleast_1d(X)[:d].reshape(1, d)
        y, im, nr = self.solver(rows)
        for k in np.flatnonzero(~(np.maximum(im, nr) <= self.tol))[:1]:
            raise ResidualError(
                f"psi at {tuple(rows[k].tolist())} misses tol {self.tol:.1e} "
                f"(image residual {im[k]:.3e}, normal residual {nr[k]:.3e})")
        return y if X.ndim == 2 else y[0]

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "residual_image": self.residual_image,
            "residual_normal": self.residual_normal,
            "samples": [
                {"x": a.tolist(), "psi": b.tolist()}
                for a, b in zip(self.samples_in, self.samples_out)
            ],
        }

    def write_csv(self, path) -> None:
        head = ([f"x{i+1}" for i in range(self.samples_in.shape[1])]
                + [f"psi{i+1}" for i in range(self.samples_out.shape[1])]
                + ["residual"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(head)
            for a, b in zip(self.samples_in, self.samples_out):
                w.writerow(["%.12g" % c for c in a]
                           + ["%.12g" % c for c in b]
                           + ["%.12g" % self.residual_image])


def _lift(obj):
    """x -> (f(x), nu(x)) on the rows of an (N, d) array."""
    def fn(X):
        F, nu = obj.lift_points(X)
        return np.hstack([F, nu])

    return fn


def _corners(n: int, dim: int) -> np.ndarray:
    """Mask of the corner samples of an n-point `_sample_grid` over a
    dim-dimensional domain: the 2 ends of a 1-D grid, the 4 corners of a
    2-D one (an m x m grid, u-major)."""
    m = math.isqrt(n) if dim == 2 else n
    corner = np.zeros(n, dtype=bool)
    corner[[0, m - 1, -m, -1]] = True
    return corner


def _lift_residuals(f2, F1, nu1, e: int, x):
    """The image and normal residuals of psi = x against the lift
    (F1, nu1), per row: |F1 - f2(x)| and |nu1 - e * nu2(x)|."""
    G, mu = f2.lift_points(x)
    return (np.linalg.norm(F1 - G, axis=1),
            np.linalg.norm(nu1 - e * mu, axis=1))


def connecting_map(f1, f2, tol: float = 1e-6,
                   n1: int = 256, n2: int = 8192) -> ConnectingMap:
    """Recover psi = L2^{-1} o L1 by lift-distance minimization.

    f1 and f2 are each lifted once, at their samples, and each lift
    sample of f1 is polished from the 4 nearest lift samples of f2.
    Since |nu1 - e nu2| = |e nu1 - nu2|, both normal signs e = +1, -1
    polish against the one lift of f2, with (f1, e nu1) as the target.
    Both signs go into one polish (`_polish`), with the corner samples
    deciding at seeding: a sign with a corner target that the lift
    samples of f2 show to lie farther than 2 tol from that lift is
    dropped before the solve, since no rule bounding its image and
    normal residuals by tol could hold there; its score is read at the
    nearest lift samples of its corners.  Every sign left standing is
    polished on all samples, and the one with the smaller sup residual
    wins.

    Raises LiftInjectivityError on a non-injective lift of f2 or psi.
    When neither sign meets tol, the inclusion test polishes the images
    of f1 against the image samples of f2 (`closest_image_point`) and
    raises InclusionError on a gap of max(10 tol, 1e-4) or more,
    ResidualError otherwise.  On success that test is not run: every
    sample's image residual is then at most tol, which bounds its
    distance to the image of f2.
    """
    D1 = _domain_of(f1)
    D2 = _domain_of(f2)

    xs2 = _sample_grid(D2, n2)
    F2, nu2 = f2.lift_points(xs2)
    tree = cKDTree(np.hstack([F2, nu2]), balanced_tree=False,
                   compact_nodes=False)
    _check_lift_injective(xs2, tree, D2)

    qs = _sample_grid(D1, n1)
    F1, nu1 = f1.lift_points(qs)
    lift2 = _lift(f2)

    signs = (1, -1)
    x, _ = _polish(lift2, np.stack([np.hstack([F1, e * nu1]) for e in signs]),
                   tree, xs2, D2, iters=40,
                   corner=_corners(len(qs), len(D1)), tol=tol)
    # (score, sign, psi samples, image and normal residuals); a sign
    # dropped at seeding is scored on the nearest samples of its corners
    # and keeps no psi samples
    tried = []
    for e, xe in zip(signs, x):
        read = ~np.isnan(xe[:, 0])
        res = tuple(float(np.max(r)) for r in
                    _lift_residuals(f2, F1[read], nu1[read], e, xe[read]))
        tried.append((max(res), e, xe if read.all() else None) + res)
    score, e, x, res_im, res_nu = min(tried, key=lambda t: t[0])
    if score > tol:
        dist, _ = closest_image_point(f2, D2, F1[None], cKDTree(F2), xs2)
        gap = float(np.max(dist, initial=0.0))
        if not gap < max(tol * 10, 1e-4):
            raise InclusionError(
                f"image of f1 is not inside image of f2 (gap {gap:.3e})")
        where = " on the corner samples" if x is None else ""
        raise ResidualError(
            f"connecting map residual {score:.3e}{where} exceeds tol "
            f"{tol:.1e}")
    _check_psi_injective(qs, x, D2)

    def solver(X):
        F, nu = f1.lift_points(X)
        y = _polish(lift2, np.hstack([F, e * nu])[None], tree, xs2, D2,
                    iters=40)[0][0]
        return (y,) + _lift_residuals(f2, F, nu, e, y)

    return ConnectingMap(qs, x, e, res_im, res_nu, solver, tol)


def _check_lift_injective(xs, tree, domain):
    """Raise when two samples xs farther apart than 5 % of the domain
    have lifts, held in tree, within 1e-5."""
    scale = max(d.length for d in domain)
    for i, j in tree.query_pairs(1e-5):
        if np.linalg.norm(xs[i] - xs[j]) > 0.05 * scale:
            raise LiftInjectivityError(
                f"lift collision: x={tuple(xs[i].tolist())} and "
                f"x={tuple(xs[j].tolist())} have nearly "
                "equal lifts but distant preimages")


def _check_psi_injective(qs, outs, domain):
    if len(qs) < 2:
        return
    res = max(d.length for d in domain) / max(math.sqrt(len(qs)), 2.0)
    for i, j in cKDTree(outs).query_pairs(1e-9):
        if np.linalg.norm(qs[i] - qs[j]) > res:
            raise LiftInjectivityError(
                "recovered psi identifies distant domain points "
                f"{tuple(qs[i].tolist())} and {tuple(qs[j].tolist())}")


# ----------------------------------------------------------- properness probe

@dataclass
class PropernessReport:
    """Grid-connectivity preimage census near a point; heuristic only."""

    point: float
    value: float
    radii: list
    counts: list
    widths: list
    verdict: str
    method: str = "grid-connectivity heuristic"

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "value": self.value,
            "radii": self.radii,
            "component_counts": self.counts,
            "component_max_widths": self.widths,
            "verdict": self.verdict,
            "method": self.method,
        }


def properness_probe(fn, p: float, r0: float = 0.5, levels: int = 8,
                     grid: int = 4096) -> PropernessReport:
    """Count preimage components of f(p) on refined grids around p.

    fn takes an array of abscissae and returns f at each, as an array of
    the same shape; it is called once per level and once for f(p).  A
    non-finite value counts as NaN, so its node is never marked.

    At level k the window [p-r0, p+r0] is sampled with grid*2^k nodes and
    a node is marked when |f(x) - f(p)| <= r0 * 2^{-k} * 1e-3; cells whose
    endpoint values straddle f(p) are marked too.  Components are maximal
    runs of marked nodes/cells.  Verdict: finite when counts stabilize over
    the last 3 levels with shrinking component width, suspected_infinite
    when counts grow monotonically or a component keeps macroscopic width.
    Raises ValueError unless 0 < r0 < inf, levels >= 1 and grid >= 1, and
    ProbeError when f has no finite value at p.
    """
    if not (0 < r0 < math.inf and levels >= 1 and grid >= 1):
        raise ValueError(f"the probe needs 0 < r0 < inf, levels >= 1 and "
                         f"grid >= 1, not {r0}, {levels} and {grid}")
    # f(p), or the mean of f at p +- 1e-9 where f(p) is not finite
    v = fn(np.array([p, p + 1e-9, p - 1e-9]))
    fp = float(v[0] if np.isfinite(v[0]) else 0.5 * (v[1] + v[2]))
    if not math.isfinite(fp):
        raise ProbeError(f"f({p!r}) is not finite, nor is the mean of f at "
                         f"{p!r} +- 1e-9")
    radii, counts, widths = [], [], []
    for k in range(levels):
        n = grid * (2 ** k)
        xs = np.linspace(p - r0, p + r0, n + 1)
        vals = np.asarray(fn(xs), dtype=float)
        vals = np.where(np.isfinite(vals), vals - fp, np.nan)
        eps = r0 * (2.0 ** -k) * 1e-3
        marked = np.abs(vals) <= eps
        cross = vals[:-1] * vals[1:] < 0
        marked[:-1] |= cross
        marked[1:] |= cross
        comp, width = _count_runs(marked, xs)
        radii.append(r0 * (2.0 ** -k))
        counts.append(comp)
        widths.append(width)
    verdict = _verdict(counts, widths, r0)
    return PropernessReport(float(p), fp, radii, counts, widths, verdict)


def _count_runs(marked: np.ndarray, xs: np.ndarray):
    """Number of runs of marked nodes, and the widest run's extent in xs."""
    edges = np.diff(np.concatenate(([0], marked.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    width = float(np.max(xs[ends] - xs[starts], initial=0.0))
    return len(starts), width


def _verdict(counts, widths, r0) -> str:
    tail = counts[-3:]
    stable = len(tail) == 3 and tail[0] == tail[1] == tail[2]
    growing = (all(counts[i + 1] >= counts[i] for i in range(len(counts) - 1))
               and counts[-1] > counts[0])
    wide = widths[-1] > 0.25 * r0
    if stable and wide:
        return "suspected_infinite"
    if growing:
        return "suspected_infinite"
    if stable and widths[-1] <= widths[max(len(widths) - 3, 0)]:
        return "finite"
    return "inconclusive"
