"""Lifts, image-inclusion tests, connecting maps, and properness probes.

The central object is the lift L_f = (f, nu) pairing a frontal map with its
unit normal.  When the image of f1 sits inside the image of f2 and the lift
of f2 is injective, the connecting map psi with f1 = f2 o psi and
nu1 = e * nu2 o psi (e a global sign) is recovered numerically by nearest
neighbor seeding and a damped Gauss-Newton polish of the lift distance,
batched over all samples on the expression tape's grid path.  The
properness probe counts preimage components of f(p) in shrinking
neighborhoods on refined grids; it is a heuristic falsifier, not a proof.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import exprlang as ex
from .germ import SurfaceGerm
from .numkit import Interval, damped_gauss_newton, eval_jet

__all__ = [
    "LiftSample", "ConnectingMap", "PropernessReport", "PlaneMap",
    "legendrian_lift", "image_subset", "connecting_map",
    "match_normal_forms", "properness_probe", "MatchError",
    "InclusionError", "LiftInjectivityError", "ResidualError",
]


class MatchError(Exception):
    pass


class InclusionError(MatchError):
    pass


class LiftInjectivityError(MatchError):
    pass


class ResidualError(MatchError):
    pass


@dataclass(frozen=True)
class LiftSample:
    x: tuple
    fx: np.ndarray
    nu: np.ndarray


class PlaneMap:
    """One-variable map into the plane, with a continuous unit normal.

    The normal is the 90-degree rotation of the tangent, extended through
    cusps: the raw rotated derivative is divided by its vanishing order and
    re-aligned for sign continuity along a cached grid.
    """

    def __init__(self, map_, domain: Interval, name: str = "plane_map",
                 grid: int = 513):
        self.map = map_
        self.domain = domain if isinstance(domain, Interval) else Interval(*domain)
        self.name = name
        # exact (expression) derivatives stay directionally accurate down to
        # underflow; finite-difference ones drown in noise much earlier
        self._raw_tol = 1e-12 if isinstance(map_, ex.MapDef) else 1e-7
        self._tangent = (map_.diff(map_.variables[0])
                         if isinstance(map_, ex.MapDef) else None)
        self._ts = self.domain.grid(grid)
        self._nus = self._continuous_normals(self._ts)

    def __call__(self, t) -> np.ndarray:
        t = float(t) if np.isscalar(t) or np.ndim(t) == 0 else float(t[0])
        return np.asarray(self.map((t,)) if _wants_tuple(self.map) else self.map(t),
                          dtype=float)

    def points(self, ts) -> np.ndarray:
        """The curve at each of the N parameters in ts (shape (N,) or
        (N, 1)), as (N, 2).  Expression maps run on the tape's grid path; a
        row left non-finite there is evaluated again as one point, so it
        raises what `self(t)` raises."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if not isinstance(self.map, ex.MapDef):
            return np.array([self(t) for t in ts]).reshape(-1, 2)
        F = self.map.eval_grid({self.map.variables[0]: ts}).T.copy()
        for i in np.flatnonzero(~np.isfinite(F).all(axis=1)):
            F[i] = self(ts[i])
        return F

    def lift_points(self, ts):
        """(f, nu) at each of the N parameters in ts, each (N, 2); nu is
        re-aligned with the normal at the nearest cached grid node."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        F = self.points(ts)
        nus = self._raw_normals(ts)
        ref = self._nus[self._nearest_node(ts)]
        missing = np.isnan(nus[:, 0])
        nus[missing] = ref[missing]
        nus[np.sum(nus * ref, axis=1) < 0] *= -1.0
        return F, nus

    def _nearest_node(self, ts) -> np.ndarray:
        """Index of the cached grid node nearest to each t (the lower one
        on a tie)."""
        j = np.clip(np.searchsorted(self._ts, ts), 1, len(self._ts) - 1)
        lower = np.abs(self._ts[j - 1] - ts) <= np.abs(self._ts[j] - ts)
        return j - lower

    def _deriv(self, t: float, order: int = 1) -> np.ndarray:
        j = eval_jet(_as_tuple_map(self.map), (t,), max(order, 1) + 1)
        return np.asarray(j.partial(order), dtype=float)

    def _raw_normal(self, t: float):
        d = self._deriv(t, 1)
        raw = np.array([-d[1], d[0]])
        n = np.linalg.norm(raw)
        if n > self._raw_tol:
            return raw / n
        if isinstance(self.map, ex.MapDef):
            # at a cusp the tangent limit is the first nonvanishing
            # Taylor coefficient of the curve
            var = self.map.variables[0]
            dm = self.map
            for _ in range(9):
                dm = dm.diff(var)
                d = np.asarray(dm((t,)), float)
                if np.linalg.norm(d) > 1e-9:
                    raw = np.array([-d[1], d[0]])
                    return raw / np.linalg.norm(raw)
        return None

    def _raw_normals(self, ts) -> np.ndarray:
        """Rotated unit tangents at ts, (N, 2), NaN where none exists.  The
        derivative runs on the grid path; where it is at most the raw
        tolerance (a cusp) or non-finite, the point goes through
        `_raw_normal`."""
        if self._tangent is None:
            raw = np.full((len(ts), 2), np.nan)
            pointwise = np.arange(len(ts))
        else:
            d = self._tangent.eval_grid({self._tangent.variables[0]: ts})
            raw = np.stack([-d[1], d[0]], axis=1)
            n = np.linalg.norm(raw, axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                raw /= n[:, None]
            pointwise = np.flatnonzero(~(n > self._raw_tol))
        for i in pointwise:
            nu = self._raw_normal(float(ts[i]))
            raw[i] = np.nan if nu is None else nu
        return raw

    def _continuous_normals(self, ts) -> np.ndarray:
        raw = self._raw_normals(ts)
        valid = np.flatnonzero(~np.isnan(raw[:, 0]))
        if not valid.size:
            raise MatchError(f"no continuous normal for '{self.name}'")
        # flip each valid node's normal to agree with the one before it
        sign, signs = 1.0, [1.0]
        for dot in np.sum(raw[valid[1:]] * raw[valid[:-1]], axis=1).tolist():
            sign = -1.0 if sign * dot < 0 else 1.0
            signs.append(sign)
        nus = np.full((len(ts), 2), np.nan)
        nus[valid] = raw[valid] * np.array(signs)[:, None]
        # fill degenerate nodes from the nearest valid neighbor (the normal
        # extends continuously through cusps)
        for i in np.flatnonzero(np.isnan(nus[:, 0])):
            nus[i] = nus[valid[np.argmin(np.abs(valid - i))]]
        # anchor the global sign at the right end: there the normal agrees
        # with the 90-degree rotation of the actual tangent
        return -nus if signs[-1] < 0 else nus


def _wants_tuple(map_):
    return isinstance(map_, ex.MapDef)


def _as_tuple_map(map_):
    if isinstance(map_, ex.MapDef):
        return map_
    return lambda p: map_(p[0])


def legendrian_lift(obj):
    """Lift sampler x -> LiftSample(x, f(x), nu(x)).

    Accepts a SurfaceGerm (normal from its frontal normal field) or a
    PlaneMap (normal of the plane curve extended through cusps).  Each
    sample is one row of the object's batched `lift_points`.
    """
    if not isinstance(obj, (SurfaceGerm, PlaneMap)):
        raise MatchError(f"cannot lift object of type {type(obj).__name__}")
    dim = len(_domain_of(obj))

    def lift(point):
        x = np.atleast_1d(np.asarray(point, dtype=float))[:dim]
        F, nu = obj.lift_points(x[None])
        return LiftSample(tuple(float(c) for c in x), F[0], nu[0])

    return lift


# ---------------------------------------------------------------- evaluation

def _domain_of(obj):
    if isinstance(obj, SurfaceGerm):
        return obj.domain
    if isinstance(obj, PlaneMap):
        return (obj.domain,)
    raise MatchError(f"no domain on {type(obj).__name__}")


def _eval(obj, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, float))
    if isinstance(obj, SurfaceGerm):
        return obj(tuple(x))
    return obj(x[0])


def _sample_grid(domain, n):
    if len(domain) == 1:
        ts = domain[0].grid(n)
        return [(float(t),) for t in ts]
    m = max(2, int(math.sqrt(n)))
    us, vs = domain[0].grid(m), domain[1].grid(m)
    return [(float(u), float(v)) for u in us for v in vs]


def _jacobian(obj, x, h=1e-6):
    x = np.asarray(x, float)
    cols = []
    for i in range(len(x)):
        dp = x.copy(); dm = x.copy()
        dp[i] += h; dm[i] -= h
        cols.append((_eval(obj, dp) - _eval(obj, dm)) / (2 * h))
    return np.stack(cols, axis=1)


def _clamp(x, domain):
    return np.array([min(max(x[i], domain[i].lo), domain[i].hi)
                     for i in range(len(x))])


def _gn_closest(obj, domain, target, x0, iters=30):
    """Gauss-Newton polish of min_x |f(x) - target|^2, clamped to domain."""
    x = np.asarray(x0, float)
    lam = 1e-8
    best = (np.linalg.norm(_eval(obj, x) - target), x)
    for _ in range(iters):
        r = _eval(obj, x) - target
        J = _jacobian(obj, x)
        A = J.T @ J + lam * np.eye(len(x))
        try:
            step = np.linalg.solve(A, -J.T @ r)
        except np.linalg.LinAlgError:
            break
        xn = _clamp(x + step, domain)
        rn = np.linalg.norm(_eval(obj, xn) - target)
        if rn < best[0]:
            best = (rn, xn)
            x = xn
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e6:
                break
    return best


def closest_image_point(obj, domain, target, tree, xs, k: int = 4):
    """Distance from target to the image of obj: polish from the k nearest
    sampled seeds (multi-sheeted images can strand a single seed on the
    wrong sheet) and keep the best.

    One target at a time, as `detect_symmetries` asks for them: its seeds
    stop early, and grid batches of one to four rows cost more than the
    float path on its small maps.  `_polish` is the batched form."""
    _, idxs = tree.query(target, k=k)
    best = (math.inf, None)
    for idx in np.atleast_1d(idxs):
        d, x = _gn_closest(obj, domain, target, np.asarray(xs[idx], float))
        if d < best[0]:
            best = (d, x)
        if best[0] < 1e-14:
            break
    return best


def image_subset(f1, V1, f2, U2, tol: float,
                 n1: int = 1024, n2: int = 16384):
    """True iff every sampled point of f1(V1) lies within tol of f2(U2).

    Distance is nearest-neighbor seeded and Gauss-Newton polished, all
    samples at once.  Returns (included, max one-sided distance).
    """
    V1 = _norm_domain(V1)
    U2 = _norm_domain(U2)
    xs2 = np.array(_sample_grid(U2, n2))
    tree = cKDTree(f2.points(xs2))
    targets = f1.points(np.array(_sample_grid(V1, n1)))
    _, dist = _polish(f2.points, targets, tree, xs2, U2, iters=30)
    worst = float(np.max(dist, initial=0.0))
    return worst < tol, worst


def _polish(fn, targets, tree, xs, domain, iters: int, k: int = 4):
    """Minimize |fn(x) - target| for each row of targets, from the k
    samples xs whose values fn(xs), held in tree, lie nearest to it (a
    multi-sheeted image can strand a single seed on the wrong sheet).
    Returns each target's best (x, residual)."""
    k = min(k, tree.n)
    _, idx = tree.query(targets, k=k)
    idx = np.asarray(idx).reshape(-1)
    lo = np.array([d.lo for d in domain])
    hi = np.array([d.hi for d in domain])
    x, res, _ = damped_gauss_newton(fn, np.repeat(targets, k, axis=0),
                                    xs[idx], lo, hi, iters)
    res = np.where(np.isnan(res), np.inf, res).reshape(-1, k)
    best = np.argmin(res, axis=1)
    rows = np.arange(len(res))
    return x.reshape(len(res), k, -1)[rows, best], res[rows, best]


def _norm_domain(dom):
    if isinstance(dom, Interval):
        return (dom,)
    return tuple(d if isinstance(d, Interval) else Interval(*d) for d in dom)


# ------------------------------------------------------------ connecting map

@dataclass
class ConnectingMap:
    """Numeric psi with f1 = f2 o psi and nu1 = e * nu2 o psi."""

    samples_in: list
    samples_out: list
    sign: int
    residual_image: float
    residual_normal: float
    solver: object = field(repr=False, default=None)

    def __call__(self, x):
        """psi at one point, or at each row of an (N, d) array."""
        X = np.asarray(x, dtype=float)
        if X.ndim == 2:
            return self.solver(X)
        d = len(self.samples_in[0])
        return self.solver(np.atleast_1d(X)[:d].reshape(1, d))[0]

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "residual_image": self.residual_image,
            "residual_normal": self.residual_normal,
            "samples": [
                {"x": list(map(float, a)), "psi": list(map(float, b))}
                for a, b in zip(self.samples_in, self.samples_out)
            ],
        }

    def write_csv(self, path) -> None:
        dim = len(self.samples_in[0])
        head = ([f"x{i+1}" for i in range(dim)]
                + [f"psi{i+1}" for i in range(len(self.samples_out[0]))]
                + ["residual"])
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(head)
            for a, b in zip(self.samples_in, self.samples_out):
                w.writerow(["%.12g" % c for c in a]
                           + ["%.12g" % c for c in b]
                           + ["%.12g" % self.residual_image])


def _signed_lift(obj, e: int):
    """x -> (f(x), e * nu(x)) on the rows of an (N, d) array."""
    def fn(X):
        F, nu = obj.lift_points(X)
        return np.hstack([F, e * nu])

    return fn


def connecting_map(f1, f2, tol: float = 1e-6,
                   n1: int = 256, n2: int = 8192) -> ConnectingMap:
    """Recover psi = L2^{-1} o L1 by lift-distance minimization.

    Each lift sample of f1 is polished from the 4 nearest lift samples of
    f2, all of them at once.  Tries both normal signs e = +1, -1; the sign
    with the smaller sup residual wins.  Raises on inclusion failure, on a
    non-injective lift of f2, or when neither sign meets the tolerance.
    """
    D1 = _domain_of(f1)
    D2 = _domain_of(f2)

    xs2 = np.array(_sample_grid(D2, n2))
    F2, nu2 = f2.lift_points(xs2)
    _check_lift_injective(xs2, np.hstack([F2, nu2]), D2)

    incl, dist = image_subset(f1, D1, f2, D2, max(tol * 10, 1e-4),
                              n1=min(n1, 256), n2=min(n2, 8192))
    if not incl:
        raise InclusionError(
            f"image of f1 is not inside image of f2 (gap {dist:.3e})")

    qs = _sample_grid(D1, n1)
    F1, nu1 = f1.lift_points(np.array(qs))
    targets = np.hstack([F1, nu1])
    best = None
    for e in (1, -1):
        tree = cKDTree(np.hstack([F2, e * nu2]))
        x, _ = _polish(_signed_lift(f2, e), targets, tree, xs2, D2, iters=40)
        G, mu = f2.lift_points(x)
        res_im = float(np.max(np.linalg.norm(F1 - G, axis=1)))
        res_nu = float(np.max(np.linalg.norm(nu1 - e * mu, axis=1)))
        score = max(res_im, res_nu)
        if best is None or score < best[0]:
            best = (score, e, tree, x, res_im, res_nu)
    score, e, tree, x, res_im, res_nu = best
    if score > tol:
        raise ResidualError(
            f"connecting map residual {score:.3e} exceeds tol {tol:.1e}")
    outs = [tuple(float(c) for c in row) for row in x]
    _check_psi_injective(qs, outs, D2)
    lift2 = _signed_lift(f2, e)

    def solver(X):
        F, nu = f1.lift_points(X)
        return _polish(lift2, np.hstack([F, nu]), tree, xs2, D2, iters=40)[0]

    return ConnectingMap(qs, outs, e, res_im, res_nu, solver)


def _check_lift_injective(xs, pts, domain, lift_tol=1e-5):
    tree = cKDTree(pts)
    scale = max(d.length for d in domain)
    pairs = tree.query_pairs(lift_tol)
    for i, j in pairs:
        if np.linalg.norm(xs[i] - xs[j]) > 0.05 * scale:
            raise LiftInjectivityError(
                f"lift collision: x={tuple(xs[i].tolist())} and "
                f"x={tuple(xs[j].tolist())} have nearly "
                "equal lifts but distant preimages")


def _check_psi_injective(qs, outs, domain):
    if len(qs) < 2:
        return
    res = max(d.length for d in domain) / max(math.sqrt(len(qs)), 2.0)
    tree = cKDTree(np.array(outs))
    for i, j in tree.query_pairs(1e-9):
        dq = np.linalg.norm(np.asarray(qs[i]) - np.asarray(qs[j]))
        if dq > res:
            raise LiftInjectivityError(
                "recovered psi identifies distant domain points "
                f"{qs[i]} and {qs[j]}")


# ------------------------------------------------------- normal form matching

def match_normal_forms(nf1, nf2, tol: float = 1e-6, n: int = 33):
    """Match two edge normal forms along the same crease image.

    Returns (u_flip, e) such that f1(u, v) = f2(s(u), e*v) with s(u) = u or
    the station reversal.  Raises on crease mismatch or when no sign fits.
    """
    us1 = nf1.interval.grid(n)
    us2 = nf2.interval.grid(n)
    c1 = np.array([nf1.crease(u) for u in us1])
    c2f = np.array([nf2.crease(u) for u in us2])
    c2r = c2f[::-1]
    gap_f = float(np.max(np.linalg.norm(c1 - c2f, axis=1)))
    gap_r = float(np.max(np.linalg.norm(c1 - c2r, axis=1)))
    if min(gap_f, gap_r) > tol * 100:
        raise MatchError(
            f"crease images differ (forward gap {gap_f:.3e}, "
            f"reversed gap {gap_r:.3e})")
    u_flip = gap_r < gap_f

    def station2(u):
        return (nf2.interval.lo + nf2.interval.hi) - u if u_flip else u

    vs = np.linspace(-min(nf1.halfwidth, nf2.halfwidth),
                     min(nf1.halfwidth, nf2.halfwidth), 9)
    best = None
    for e in (1, -1):
        worst = 0.0
        for u in us1:
            s = station2(u)
            for v in vs:
                d = np.linalg.norm(nf1.evaluate(u, v)
                                   - nf2.evaluate(s, e * v))
                worst = max(worst, float(d))
        if best is None or worst < best[0]:
            best = (worst, e)
    worst, e = best
    if worst > tol:
        raise ResidualError(
            f"no sign matches the normal forms (best residual {worst:.3e})")
    return u_flip, e


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


def _probe_value(fn, p: float) -> float:
    v = fn(p)
    if np.isfinite(v):
        return float(v)
    d = 1e-9
    return 0.5 * (float(fn(p + d)) + float(fn(p - d)))


def properness_probe(fn, p: float, r0: float = 0.5, levels: int = 8,
                     grid: int = 4096) -> PropernessReport:
    """Count preimage components of f(p) on refined grids around p.

    At level k the window [p-r0, p+r0] is sampled with grid*2^k nodes and
    a node is marked when |f(x) - f(p)| <= r0 * 2^{-k} * 1e-3; cells whose
    endpoint values straddle f(p) are marked too.  Components are maximal
    runs of marked nodes/cells.  Verdict: finite when counts stabilize over
    the last 3 levels with shrinking component width, suspected_infinite
    when counts grow monotonically or a component keeps macroscopic width.
    """
    fp = _probe_value(fn, p)
    radii, counts, widths = [], [], []
    for k in range(levels):
        n = grid * (2 ** k)
        xs = np.linspace(p - r0, p + r0, n + 1)
        vals = np.array([fn(x) for x in xs], dtype=float) - fp
        eps = r0 * (2.0 ** -k) * 1e-3
        near = np.abs(vals) <= eps
        cross = vals[:-1] * vals[1:] < 0
        marked = near.copy()
        marked[:-1] |= cross
        marked[1:] |= cross
        comp, width = _count_runs(marked, xs)
        radii.append(r0 * (2.0 ** -k))
        counts.append(comp)
        widths.append(width)
    verdict = _verdict(counts, widths, r0)
    return PropernessReport(float(p), fp, radii, counts, widths, verdict)


def _count_runs(marked: np.ndarray, xs: np.ndarray):
    comp = 0
    width = 0.0
    i = 0
    n = len(marked)
    while i < n:
        if marked[i]:
            j = i
            while j + 1 < n and marked[j + 1]:
                j += 1
            comp += 1
            width = max(width, float(xs[j] - xs[i]))
            i = j + 1
        else:
            i += 1
    return comp, width


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
