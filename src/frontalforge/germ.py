"""Surface germs in 3-space: normals, area density, singular sets, frames.

A germ is a map (u, v) -> R^3 around a base point.  Frontal germs carry a
unit normal along the map; for wave-front catalog entries an analytic
(unnormalized) normal expression is attached, everything else goes through
a directional-limit extension of f_u x f_v.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .geom import GermFrame
from .numkit import Interval, Jet, eval_jet

__all__ = [
    "SurfaceGerm", "NormalField", "normal_field", "area_density",
    "singular_curve", "SingularSample", "SingularComponent",
    "limiting_normal_curvature", "distinguished_frame",
    "first_fundamental_form", "catalog", "CATALOG_NAMES", "GermError",
    "NotAFrontal", "NotSingular", "DegenerateSingularity", "NonConvergence",
]


class GermError(Exception):
    pass


class NotAFrontal(GermError):
    """No continuous unit normal extends across the singular set."""


class NotSingular(GermError):
    pass


class DegenerateSingularity(GermError):
    pass


class NonConvergence(GermError):
    """An iterative step ended without meeting its tolerance."""


class SurfaceGerm:
    def __init__(self, map_, domain, base=(0.0, 0.0), normal_map=None,
                 name: str = "germ", sing_type: str | None = None):
        self.map = map_
        self.domain = (Interval(*domain[0]) if not isinstance(domain[0], Interval)
                       else domain[0],
                       Interval(*domain[1]) if not isinstance(domain[1], Interval)
                       else domain[1])
        self.base = (float(base[0]), float(base[1]))
        self.normal_map = normal_map  # unnormalized normal, may be None
        self.name = name
        self.sing_type = sing_type
        self._du = self._dv = None
        if isinstance(map_, ex.MapDef):
            u, v = map_.variables
            self._du = map_.diff(u)
            self._dv = map_.diff(v)

    def __call__(self, point) -> np.ndarray:
        return np.asarray(self.map(point), dtype=float)

    def points(self, X) -> np.ndarray:
        """f on the rows of an (N, 2) array, as (N, 3).  Expression maps run
        on the tape's grid path; a row left non-finite there is evaluated
        again as one point, so it raises what `self(p)` raises."""
        X = np.asarray(X, dtype=float)
        if not self.is_expression:
            return np.array([self(tuple(x)) for x in X]).reshape(-1, 3)
        u, v = self.map.variables
        F = self.map.eval_grid({u: X[:, 0], v: X[:, 1]}).T.copy()
        for i in np.flatnonzero(~np.isfinite(F).all(axis=1)):
            F[i] = self(tuple(X[i]))
        return F

    def lift_points(self, X):
        """(f, nu) on the rows of an (N, 2) array, each (N, 3)."""
        return self.points(X), NormalField(self).points(X)

    def jet(self, point, order: int = 3) -> Jet:
        return eval_jet(self.map, point, order)

    @property
    def is_expression(self) -> bool:
        return isinstance(self.map, ex.MapDef)

    def partials_grid(self, U, V):
        """(f_u, f_v) stacked over broadcastable grids, expression germs only."""
        if self._du is None:
            raise GermError("gridded partials need an expression-backed germ")
        u, v = self.map.variables
        arrays = {u: U, v: V}
        return self._du.eval_grid(arrays), self._dv.eval_grid(arrays)

    def grid(self, nu: int, nv: int):
        return self.domain[0].grid(nu), self.domain[1].grid(nv)


# --------------------------------------------------------------- normal field

class NormalField:
    """Continuous unit normal of a frontal germ."""

    def __init__(self, germ: SurfaceGerm, tol: float = 1e-6):
        self.germ = germ
        self.tol = tol
        if germ.normal_map is None:
            self._probe_consistency()

    def __call__(self, point) -> np.ndarray:
        g = self.germ
        if g.normal_map is not None:
            raw = np.asarray(g.normal_map(point), dtype=float)
            n = np.linalg.norm(raw)
            if n < 1e-13:
                raise NotAFrontal(
                    f"analytic normal of '{g.name}' vanishes at {tuple(point)}")
            return raw / n
        return self._limit_normal(np.asarray(point, dtype=float))

    def points(self, X) -> np.ndarray:
        """The unit normal on the rows of an (N, 2) array, as (N, 3).  An
        analytic normal runs on the tape's grid path; a row where it is
        non-finite or vanishes is evaluated again as one point, so it
        raises what `self(p)` raises."""
        X = np.asarray(X, dtype=float)
        nm = self.germ.normal_map
        if not isinstance(nm, ex.MapDef):
            return np.array([self(tuple(x)) for x in X]).reshape(-1, 3)
        u, v = nm.variables
        raw = nm.eval_grid({u: X[:, 0], v: X[:, 1]}).T
        n = np.linalg.norm(raw, axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = raw / n[:, None]
        for i in np.flatnonzero(~(np.isfinite(out).all(axis=1) & (n >= 1e-13))):
            out[i] = self(tuple(X[i]))
        return out

    def grid(self, U, V) -> np.ndarray:
        """The unit normal over broadcastable grids, shape (3, ...)."""
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        nu = self.points(np.column_stack([U.ravel(), V.ravel()]))
        return nu.T.reshape((3,) + U.shape)

    def _probe_consistency(self):
        # check at the base point that a normal exists at all
        self(self.germ.base)

    # -- generic extension ---------------------------------------------------

    def _raw_cross(self, point):
        j = self.germ.jet(point, 1)
        return np.cross(j.partial(1, 0), j.partial(0, 1))

    def _limit_normal(self, point) -> np.ndarray:
        cr = self._raw_cross(point)
        j = self.germ.jet(point, 1)
        scale = max(np.linalg.norm(j.partial(1, 0)), np.linalg.norm(j.partial(0, 1)), 1e-300)
        if np.linalg.norm(cr) > 1e-7 * scale ** 2:
            return cr / np.linalg.norm(cr)
        dirs = [np.array(d) for d in
                ((1.0, 0.0), (0.0, 1.0), (0.7071067811865476, 0.7071067811865476),
                 (0.7071067811865476, -0.7071067811865476))]
        estimates = []
        for d in dirs:
            est = self._limit_along(point, d)
            if est is not None:
                estimates.append(est)
        if not estimates:
            raise NotAFrontal(
                f"normal of '{self.germ.name}' undefined near {tuple(point)}")
        ref = estimates[0]
        for est in estimates[1:]:
            if est @ ref < 0:
                est = -est
            if np.linalg.norm(est - ref) > self.tol:
                raise NotAFrontal(
                    f"'{self.germ.name}' has no single-valued normal at "
                    f"{tuple(point)} (directional limits disagree by "
                    f"{np.linalg.norm(est - ref):.2e})")
        return ref

    def _limit_along(self, point, d):
        # Richardson extrapolation of the normalized cross product along p + t d
        t0 = 1e-2
        seq = []
        for j in range(6):
            t = t0 * 0.5 ** j
            q = point + t * d
            cr = self._raw_cross(q)
            n = np.linalg.norm(cr)
            if n < 1e-13:
                return None
            v = cr / n
            if seq and v @ seq[-1] < 0:
                v = -v
            seq.append(v)
        a, b = seq[-2], seq[-1]
        est = 2.0 * b - a
        n = np.linalg.norm(est)
        return est / n if n > 0 else None


def normal_field(germ: SurfaceGerm, tol: float = 1e-6) -> NormalField:
    return NormalField(germ, tol)


# --------------------------------------------------------------- area density

def area_density(germ: SurfaceGerm, nf: NormalField | None = None):
    """lambda(u, v) = det(f_u, f_v, nu) as a callable; `.grid(U, V)` when
    the germ is expression-backed."""
    nf = nf or normal_field(germ)

    def lam(point):
        j = germ.jet(point, 1)
        nu = nf(point)
        return float(np.dot(np.cross(j.partial(1, 0), j.partial(0, 1)), nu))

    if germ.is_expression and isinstance(germ.normal_map, ex.MapDef):
        def lam_grid(U, V):
            fu, fv = germ.partials_grid(U, V)
            nu = nf.grid(U, V)
            cr = np.cross(fu, fv, axis=0)
            return np.sum(cr * nu, axis=0)
        lam.grid = lam_grid
    else:
        def lam_grid(U, V):
            U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
            out = np.empty(U.shape)
            for idx in np.ndindex(U.shape):
                out[idx] = lam((U[idx], V[idx]))
            return out
        lam.grid = lam_grid
    return lam


# ------------------------------------------------------------- singular curve

@dataclass
class SingularSample:
    point: np.ndarray          # (u, v) in the domain
    image: np.ndarray          # f(u, v)
    grad: np.ndarray           # grad of lambda
    null: np.ndarray           # unit null direction in the domain
    nondegenerate: bool
    sing_type: str             # "I" | "II" | "degenerate"


@dataclass
class SingularComponent:
    samples: list

    @property
    def points(self) -> np.ndarray:
        return np.array([s.point for s in self.samples])


def _newton_on_lambda(lam, q, tol=1e-12, h=1e-7, iters=40):
    q = np.array(q, dtype=float)
    for _ in range(iters):
        val = lam(q)
        if abs(val) <= tol:
            return q, True
        gu = (lam(q + (h, 0)) - lam(q - (h, 0))) / (2 * h)
        gv = (lam(q + (0, h)) - lam(q - (0, h))) / (2 * h)
        g2 = gu * gu + gv * gv
        if g2 < 1e-30:
            return q, False
        q = q - val * np.array([gu, gv]) / g2
    return q, abs(lam(q)) <= 10 * tol


def _lambda_gradient(lam, q, h=1e-6):
    gu = (lam(q + np.array([h, 0.0])) - lam(q - np.array([h, 0.0]))) / (2 * h)
    gv = (lam(q + np.array([0.0, h])) - lam(q - np.array([0.0, h]))) / (2 * h)
    return np.array([gu, gv])


def _null_direction(germ, q):
    j = germ.jet(q, 1)
    J = np.column_stack([j.partial(1, 0), j.partial(0, 1)])
    _, s, vt = np.linalg.svd(J)
    null = vt[1]
    if null[0] < 0 or (null[0] == 0 and null[1] < 0):
        null = -null
    return null, s


def singular_curve(germ: SurfaceGerm, grid: int = 256, tol: float = 1e-12):
    """Trace the zero set of the area density on the domain rectangle."""
    lam = area_density(germ)
    U1 = germ.domain[0].grid(grid)
    V1 = germ.domain[1].grid(grid)
    U, V = np.meshgrid(U1, V1, indexing="ij")
    L = lam.grid(U, V)

    seeds = []
    cells = set()
    sign = np.signbit(L)
    zero = np.abs(L) < tol
    # sign changes between horizontally / vertically adjacent grid nodes
    for axis in (0, 1):
        flips = (sign[:-1, :] != sign[1:, :]) if axis == 0 else (sign[:, :-1] != sign[:, 1:])
        idx = np.argwhere(flips)
        for i, jx in idx:
            if axis == 0:
                a, b = (i, jx), (i + 1, jx)
            else:
                a, b = (i, jx), (i, jx + 1)
            la, lb = L[a], L[b]
            t = la / (la - lb) if la != lb else 0.5
            seed = (1 - t) * np.array([U[a], V[a]]) + t * np.array([U[b], V[b]])
            seeds.append(seed)
            cells.add(a)
    for i, jx in np.argwhere(zero):
        seeds.append(np.array([U[i, jx], V[i, jx]]))
        cells.add((i, jx))
    if not seeds:
        return []

    refined = []
    for seed in seeds:
        q, ok = _newton_on_lambda(lam, seed, tol=tol)
        if ok and germ.domain[0].contains(q[0], 1e-9) and germ.domain[1].contains(q[1], 1e-9):
            refined.append(q)
    if not refined:
        return []
    pts = np.array(refined)
    # deduplicate on the grid scale
    hu = U1[1] - U1[0] if grid > 1 else 1.0
    hv = V1[1] - V1[0] if grid > 1 else 1.0
    keep = []
    seen = set()
    for q in pts:
        key = (round(q[0] / (0.5 * hu)), round(q[1] / (0.5 * hv)))
        if key not in seen:
            seen.add(key)
            keep.append(q)
    pts = np.array(keep)

    components = _split_components(pts, 3.0 * max(hu, hv))
    out = []
    for comp in components:
        samples = []
        # order along the dominant extent axis
        span = comp.max(axis=0) - comp.min(axis=0)
        axis = int(np.argmax(span))
        comp = comp[np.argsort(comp[:, axis])]
        for q in comp:
            g = _lambda_gradient(lam, q)
            nondeg = np.linalg.norm(g) > 1e-6
            null, _ = _null_direction(germ, q)
            if nondeg:
                tangent = np.array([-g[1], g[0]])
                tangent /= np.linalg.norm(tangent)
                cross = abs(null[0] * tangent[1] - null[1] * tangent[0])
                stype = "I" if cross > 1e-6 else "II"
            else:
                stype = "degenerate"
            samples.append(SingularSample(q, germ(q), g, null, nondeg, stype))
        out.append(SingularComponent(samples))
    return out


def _split_components(pts, radius):
    from scipy.spatial import cKDTree
    tree = cKDTree(pts)
    n = len(pts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in tree.query_pairs(radius):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(pts[i])
    return [np.array(g) for g in groups.values()]


# ------------------------------------------------- pointwise singular helpers

def _trace_gamma(germ, lam, p, h):
    """Five points of the singular curve around p, as a graph over the
    better-aligned coordinate axis.  Returns (axis, params, domain points)."""
    g = _lambda_gradient(lam, p)
    if np.linalg.norm(g) < 1e-8:
        raise DegenerateSingularity(
            f"area density of '{germ.name}' is degenerate at {tuple(p)}")
    tangent = np.array([-g[1], g[0]])
    tangent /= np.linalg.norm(tangent)
    axis = 0 if abs(tangent[0]) >= abs(tangent[1]) else 1
    other = 1 - axis
    slope = tangent[other] / tangent[axis]
    pts = []
    for k in (-2, -1, 0, 1, 2):
        t = k * h
        q = np.array(p, dtype=float)
        q[axis] += t
        q[other] += slope * t
        # 1-d Newton transverse to the axis
        for _ in range(60):
            val = lam(q)
            if abs(val) < 1e-13:
                break
            step = 1e-7
            qp = q.copy(); qp[other] += step
            qm = q.copy(); qm[other] -= step
            d = (lam(qp) - lam(qm)) / (2 * step)
            if abs(d) < 1e-14:
                break
            q[other] -= val / d
        else:
            val = lam(q)
        if not abs(val) < 1e-13:
            raise NonConvergence(
                f"singular curve of '{germ.name}' near p={tuple(p)}: the "
                f"transverse Newton step at t={t:.3e} ended with "
                f"|lambda|={abs(val):.3e}")
        pts.append(q)
    return axis, np.array([-2, -1, 0, 1, 2]) * h, pts


def limiting_normal_curvature(germ: SurfaceGerm, p=None, tol: float = 1e-10,
                              h: float = 1e-3) -> float:
    """Normal curvature of the singular image in the limiting normal
    direction at p (second derivative of f along the singular curve, dotted
    with the unit normal, over the squared speed)."""
    p = np.asarray(p if p is not None else germ.base, dtype=float)
    nf = normal_field(germ)
    lam = area_density(germ, nf)
    null, s = _null_direction(germ, p)
    if s[1] > 1e-6 * max(s[0], 1.0):
        raise NotSingular(f"'{germ.name}' is immersive at {tuple(p)}")
    _, ts, pts = _trace_gamma(germ, lam, p, h)
    vals = np.array([germ(q) for q in pts])
    d1 = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)
    d2 = (-vals[4] + 16 * vals[3] - 30 * vals[2] + 16 * vals[1] - vals[0]) / (12 * h * h)
    speed2 = float(d1 @ d1)
    if speed2 < 1e-16:
        raise DegenerateSingularity(
            "singular image is not regular at the base point (type II?)")
    nu = nf(p)
    return float(d2 @ nu) / speed2


def first_fundamental_form(germ: SurfaceGerm, p) -> tuple:
    j = germ.jet(p, 1)
    fu, fv = j.partial(1, 0), j.partial(0, 1)
    return float(fu @ fu), float(fu @ fv), float(fv @ fv)


def distinguished_frame(germ: SurfaceGerm, p=None, tol: float = 1e-8) -> GermFrame:
    """Frame (tangent, limiting normal, conormal) at a co-rank-one singular
    point, with the cuspidal direction when the transverse section is a cusp.

    If f_v(p) != 0 the null direction is found first (domain rotation) so the
    tangent is the image of the non-null direction.
    """
    p = np.asarray(p if p is not None else germ.base, dtype=float)
    j = germ.jet(p, 2)
    J = np.column_stack([j.partial(1, 0), j.partial(0, 1)])
    u_svd, s, vt = np.linalg.svd(J)
    if s[1] > 1e-6 * max(s[0], 1.0):
        raise NotSingular(f"'{germ.name}' is immersive at {tuple(p)}")
    if s[0] < 1e-10:
        raise DegenerateSingularity("rank of the differential drops below one")
    null = vt[1]
    tdir = vt[0]
    img_t = J @ tdir
    # orient the tangent along increasing u when possible
    if img_t @ J[:, 0] < 0 or (abs(img_t @ J[:, 0]) < 1e-14 and img_t @ J[:, 1] < 0):
        img_t = -img_t
        tdir = -tdir
    e = img_t / np.linalg.norm(img_t)
    nu = normal_field(germ)(p)
    w = np.cross(e, nu)
    f_nn = j.directional2(null)
    s_w = float(f_nn @ w)
    cusp = None
    if abs(s_w) > 1e-10 * max(1.0, np.linalg.norm(f_nn)):
        cusp = np.sign(s_w) * w
    return GermFrame(j.value, e, nu, cusp)


# -------------------------------------------------------------------- catalog

def _std_domain():
    return (Interval(-1.0, 1.0), Interval(-1.0, 1.0))


def catalog(name: str, **params) -> SurfaceGerm:
    """Built-in germs; all based at the origin of the parameter plane."""
    if name == "cuspidal_edge":
        m = ex.MapDef("cuspidal_edge", ("u", "v"), ["v^2", "v^3", "u"])
        nu = ex.MapDef("cuspidal_edge_nu", ("u", "v"), ["-3*v", "2", "0"])
        return SurfaceGerm(m, _std_domain(), normal_map=nu,
                           name="cuspidal_edge", sing_type="cuspidal_edge")
    if name == "swallowtail":
        m = ex.MapDef("swallowtail", ("u", "v"),
                      ["3*v^4+u*v^2", "4*v^3+2*u*v", "u"])
        nu = ex.MapDef("swallowtail_nu", ("u", "v"), ["1", "-v", "v^2"])
        return SurfaceGerm(m, _std_domain(), normal_map=nu,
                           name="swallowtail", sing_type="swallowtail")
    if name == "cuspidal_cross_cap":
        m = ex.MapDef("cuspidal_cross_cap", ("u", "v"), ["v^2", "u*v^3", "u"])
        nu = ex.MapDef("cuspidal_cross_cap_nu", ("u", "v"),
                       ["-3*u*v", "2", "-2*v^3"])
        return SurfaceGerm(m, _std_domain(), normal_map=nu,
                           name="cuspidal_cross_cap", sing_type="cuspidal_cross_cap")
    if name == "cross_cap":
        m = ex.MapDef("cross_cap", ("u", "v"), ["u*v", "v^2", "u"])
        return SurfaceGerm(m, _std_domain(), name="cross_cap", sing_type=None)
    if name == "ccr_example":
        # cuspidal cross cap with non-vanishing limiting normal curvature
        m = ex.MapDef("ccr_example", ("u", "v"), ["u", "v^2", "u^2+u*v^3"])
        nu = ex.MapDef("ccr_example_nu", ("u", "v"),
                       ["-4*u-2*v^3", "-3*u*v", "2"])
        return SurfaceGerm(m, _std_domain(), normal_map=nu,
                           name="ccr_example", sing_type="cuspidal_cross_cap")
    if name == "sw_example":
        b = float(params.get("b", 1.0))
        c = float(params.get("c", 1.0))
        if b == 0.0:
            raise GermError("sw_example requires b != 0")
        m = ex.MapDef("sw_example", ("u", "v"),
                      ["u + v^2/2 - b^2*u*v^2/2 - b^2*v^4/8",
                       "b*v^3/3 + b*u*v", "c*u^2/2"],
                      {"b": b, "c": c})
        nu = ex.MapDef("sw_example_nu", ("u", "v"),
                       ["-b*c*(v^2+u)",
                        "c*(v - b^2*u*v - b^2*v^3/2)",
                        "b*(1 + b^2*v^2/2)"], {"b": b, "c": c})
        return SurfaceGerm(m, (Interval(-0.5, 0.5), Interval(-0.5, 0.5)),
                           normal_map=nu, name="sw_example",
                           sing_type="swallowtail")
    if name == "ms_edge":
        return _ms_edge(params.get("a0", "0"), params.get("b0", "1"),
                        params.get("b2", "0"), params.get("b3", "1"))
    raise GermError(f"unknown catalog germ '{name}'")


CATALOG_NAMES = ("cuspidal_edge", "swallowtail", "cuspidal_cross_cap",
                 "cross_cap", "ccr_example", "sw_example", "ms_edge")


def _ms_edge(a0: str, b0: str, b2: str, b3: str) -> SurfaceGerm:
    """(u, a0(u) + v^2, b0(u) u^2 + b2(u) u v^2 + b3(u,v) v^3)."""
    a0e, b0e, b2e, b3e = (ex.parse(s) for s in (a0, b0, b2, b3))
    for e, allowed in ((a0e, {"u"}), (b0e, {"u"}), (b2e, {"u"}), (b3e, {"u", "v"})):
        extra = ex.free_vars(e) - allowed
        if extra:
            raise GermError(f"ms_edge coefficient uses {sorted(extra)}")
    u, v = ex.var("u"), ex.var("v")
    comps = (
        u,
        ex.add(a0e, ex.mul(v, v)),
        ex.add(ex.add(ex.mul(b0e, ex.mul(u, u)),
                      ex.mul(ex.mul(b2e, u), ex.mul(v, v))),
               ex.mul(b3e, ex.mul(ex.mul(v, v), v))),
    )
    m = ex.MapDef("ms_edge", ("u", "v"), comps)
    b30 = ex.evaluate(b3e, {"u": 0.0, "v": 0.0})
    if abs(b30) < 1e-12:
        raise GermError("ms_edge requires b3(0,0) != 0")
    fu = tuple(ex.diff(c, "u") for c in comps)
    b3v = ex.diff(b3e, "v")
    fv_over_v = (ex.num(0), ex.num(2),
                 ex.add(ex.add(ex.mul(ex.num(2), ex.mul(b2e, u)),
                               ex.mul(b3v, ex.mul(v, v))),
                        ex.mul(ex.num(3), ex.mul(b3e, v))))
    nu = ex.MapDef("ms_edge_nu", ("u", "v"), ex.cross3(fu, fv_over_v))
    g = SurfaceGerm(m, _std_domain(), normal_map=nu, name="ms_edge",
                    sing_type="cuspidal_edge")
    g.ms_coeffs = {"a0": a0e, "b0": b0e, "b2": b2e, "b3": b3e}
    return g
