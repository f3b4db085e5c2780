"""Surface germs in 3-space: normals, area density, singular sets, frames.

A germ is an expression map (u, v) -> R^3 around a base point, so it has
exact jets.  Frontal germs carry a unit normal along the map; for
wave-front catalog entries an analytic (unnormalized) normal expression
is attached, everything else goes through
the exact directional limits of f_u x f_v, oriented at the base point.
On the singular set, the gradient of the area density, the null directions
and the limiting normal curvature all come from one order-2 jet of f and
the unit normal.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import exprlang as ex
from .geom import GermFrame
from .numkit import Interval, Jet, damped_gauss_newton

__all__ = [
    "SurfaceGerm", "NormalField", "normal_field", "area_density",
    "singular_curve", "SingularSample", "SingularComponent",
    "limiting_normal_curvature", "distinguished_frame", "catalog",
    "CATALOG_NAMES", "GermError",
    "NotAFrontal", "NotSingular", "DegenerateSingularity",
]


class GermError(Exception):
    pass


class NotAFrontal(GermError):
    """No continuous unit normal extends across the singular set."""


class NotSingular(GermError):
    pass


class DegenerateSingularity(GermError):
    pass


class SurfaceGerm:
    def __init__(self, map_, domain, base=(0.0, 0.0), normal_map=None,
                 name: str = "germ", sing_type: str | None = None):
        if not isinstance(map_, ex.MapDef):
            raise GermError(f"germ '{name}' needs an expression map, "
                            f"not {type(map_).__name__}")
        self.map = map_
        self.domain = (Interval(*domain[0]) if not isinstance(domain[0], Interval)
                       else domain[0],
                       Interval(*domain[1]) if not isinstance(domain[1], Interval)
                       else domain[1])
        self.base = (float(base[0]), float(base[1]))
        if not (normal_map is None or isinstance(normal_map, ex.MapDef)):
            raise GermError(f"the normal map of '{name}' must be an "
                            "expression map or None")
        self.normal_map = normal_map  # unnormalized normal, may be None
        self.name = name
        self.sing_type = sing_type
        u, v = map_.variables
        self._du = map_.diff(u)
        self._dv = map_.diff(v)

    def __call__(self, point) -> np.ndarray:
        return np.asarray(self.map(point), dtype=float)

    def points(self, X) -> np.ndarray:
        """f on the rows of an (N, 2) array, as (N, 3), from the map's
        checked grid evaluation `MapDef.values`."""
        X = np.asarray(X, dtype=float)
        u, v = self.map.variables
        return self.map.values({u: X[:, 0], v: X[:, 1]}).T.copy()

    def lift_points(self, X):
        """(f, nu) on the rows of an (N, 2) array, each (N, 3)."""
        return self.points(X), self.normal_field.points(X)

    @cached_property
    def normal_field(self) -> "NormalField":
        """The germ's unit normal field, built on first use."""
        return NormalField(self)

    def jet(self, point, order: int = 3) -> Jet:
        return self.map.eval_jet(point, order)

    def partials_grid(self, U, V):
        """(f_u, f_v) stacked over broadcastable grids."""
        u, v = self.map.variables
        arrays = {u: U, v: V}
        return self._du.eval_grid(arrays), self._dv.eval_grid(arrays)

    def grid(self, nu: int, nv: int):
        return self.domain[0].grid(nu), self.domain[1].grid(nv)


# --------------------------------------------------------------- normal field

class NormalField:
    """Continuous unit normal of a frontal germ.

    The analytic normal, when the germ has one, is normalized as it is.
    Otherwise the normal is f_u x f_v normalized, extended across the
    singular set by its exact directional limits, and oriented by its
    value at the base point: a normal whose dot product with that
    reference is negative is flipped.  This assumes the normal stays
    within 90 degrees of its base value on the domain.
    """

    def __init__(self, germ: SurfaceGerm):
        self.germ = germ
        if germ.normal_map is None:
            # a normal must exist at the base point; it orients all others
            self._ref = self._limit_normal(np.array([germ.base]))[0]

    def __call__(self, point) -> np.ndarray:
        """The unit normal at one point: the one-row case of `points`."""
        return self.points(np.reshape(point, (1, 2)))[0]

    def points(self, X) -> np.ndarray:
        """The unit normal on the rows of an (N, 2) array, as (N, 3), on
        the tape's grid path: the analytic normal from `MapDef.values`,
        where a row shorter than 1e-13 raises `NotAFrontal`; or f_u x f_v
        from `partials_grid`, where the rows that are non-finite or at most
        1e-7 times the squared scale of f_u and f_v take its exact limit,
        all in one `_limit_normal` call."""
        X = np.asarray(X, dtype=float)
        g, U, V = self.germ, X[:, 0], X[:, 1]
        if g.normal_map is not None:
            u, v = g.normal_map.variables
            raw = g.normal_map.values({u: U, v: V}).T
            n = np.linalg.norm(raw, axis=1)
            bad = np.flatnonzero(~(n >= 1e-13))
            if bad.size:
                raise NotAFrontal(f"analytic normal of '{g.name}' vanishes "
                                  f"at {tuple(X[bad[0]].tolist())}")
            return raw / n[:, None]
        fu, fv = g.partials_grid(U, V)
        raw = np.cross(fu, fv, axis=0).T
        n = np.linalg.norm(raw, axis=1)
        scale = np.maximum(np.linalg.norm([fu, fv], axis=1).max(axis=0), 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = raw / n[:, None]
        redo = ~(n > 1e-7 * scale ** 2) | ~np.isfinite(out).all(axis=1)
        if redo.any():
            out[redo] = self._limit_normal(X[redo])
        out[out @ self._ref < 0] *= -1.0
        return out

    def grid(self, U, V) -> np.ndarray:
        """The unit normal over broadcastable grids, shape (3, ...)."""
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        nu = self.points(np.column_stack([U.ravel(), V.ravel()]))
        return nu.T.reshape((3,) + U.shape)

    # -- generic extension ---------------------------------------------------

    _DIRECTIONS = np.array([(1.0, 0.0), (0.0, 1.0),
                            (0.7071067811865476, 0.7071067811865476),
                            (0.7071067811865476, -0.7071067811865476)])

    def _limit_normal(self, P) -> np.ndarray:
        """The unit limits of f_u x f_v, up to sign, at the rows p of an
        (N, 2) array, as (N, 3), from one order-3 jet.  Along each probe
        direction d it is the first Taylor coefficient of f_u x f_v along
        p + t d (orders 0 to 2) longer than 1e-7 times the squared scale
        of f_u and f_v; the directions that have one must agree up to
        sign, or `NotAFrontal` names the first row where they do not."""
        j = self.germ.jet(P, 3)
        scale = np.linalg.norm([j.partial(1, 0), j.partial(0, 1)], axis=2)
        floor = 1e-7 * np.maximum(scale.max(axis=0), 1e-300) ** 2
        C = _cross_coefficients(j, self._DIRECTIONS)
        n = np.linalg.norm(C, axis=-1)
        above = n > floor[:, None]
        found = above.any(axis=0)
        rows, dirs = np.ogrid[:len(P), :len(self._DIRECTIONS)]
        order = above.argmax(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            estimates = C[order, rows, dirs] / n[order, rows, dirs][..., None]
        ref = estimates[rows[:, 0], found.argmax(axis=1)]
        flip = np.where(np.einsum("ndk,nk->nd", estimates, ref) < 0, -1.0, 1.0)
        dist = np.linalg.norm(flip[..., None] * estimates - ref[:, None], axis=-1)
        gap = np.where(found, dist, -np.inf).max(axis=1)  # -inf: no direction
        bad = np.flatnonzero((gap > 1e-6) | (gap < 0))
        if bad.size:
            name, at, gap = self.germ.name, tuple(P[bad[0]].tolist()), gap[bad[0]]
            raise NotAFrontal(
                f"normal of '{name}' undefined near {at}" if gap < 0 else
                f"'{name}' has no single-valued normal at {at} "
                f"(directional limits disagree by {gap:.2e})")
        return ref


def _cross_coefficients(j: Jet, D) -> np.ndarray:
    """Taylor coefficients of orders 0 to 2 of f_u x f_v along p + t d for
    each row d of D, at each of the N points of an order-3 jet of f, shape
    (3, N, len(D), 3)."""
    def along(k, a, b):
        # k-th Taylor coefficient of the partial (a, b) of f along p + t d
        W = [math.comb(k, i) * D[:, 0] ** i * D[:, 1] ** (k - i)
             for i in range(k + 1)]
        P = [j.partial(a + i, b + k - i) for i in range(k + 1)]
        return np.einsum("id,inx->ndx", W, P) / math.factorial(k)

    fu = [along(k, 1, 0) for k in range(3)]
    fv = [along(k, 0, 1) for k in range(3)]
    pairs = [(i, k - i) for k in range(3) for i in range(k + 1)]
    X = np.cross([fu[i] for i, _ in pairs], [fv[i] for _, i in pairs])
    return np.array([X[0], X[1] + X[2], X[3] + X[4] + X[5]])


def normal_field(germ: SurfaceGerm) -> NormalField:
    return germ.normal_field


# --------------------------------------------------------------- area density

def area_density(germ: SurfaceGerm):
    """lambda(u, v) = det(f_u, f_v, nu) = (f_u x f_v) . nu of a germ, as
    a callable on one point; `.grid(U, V)` evaluates it over broadcastable
    grids on the tape's grid path."""
    nf = germ.normal_field

    def grid(U, V):
        fu, fv = germ.partials_grid(U, V)
        return np.sum(np.cross(fu, fv, axis=0) * nf.grid(U, V), axis=0)

    def lam(point):
        U, V = np.asarray(point, dtype=float).reshape(2, 1)
        return float(grid(U, V)[0])

    lam.grid = grid
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


def _lambda_gradient(j, nu) -> np.ndarray:
    """Exact gradients of lambda = det(f_u, f_v, nu), as (N, 2), from an
    order-2 jet of f at N points and the unit normals there, (N, 3).  As
    f_u x f_v = lambda nu and nu . nu_u = 0, no derivative of nu enters:
    lambda_u = det(f_uu, f_v, nu) + det(f_u, f_uv, nu), and so in v."""
    fu, fv, fuv = j.partial(1, 0), j.partial(0, 1), j.partial(1, 1)

    def det(a, b):
        return np.sum(np.cross(a, b) * nu, axis=1)

    return np.column_stack([det(j.partial(2, 0), fv) + det(fu, fuv),
                            det(fuv, fv) + det(fu, j.partial(0, 2))])


def _null_directions(j):
    """Unit null directions of (f_u, f_v) at the N points of a jet of f,
    pointing to increasing u (or v where u is flat), and the singular
    values, (N, 2) each, from a stacked SVD."""
    _, s, vt = np.linalg.svd(np.stack([j.partial(1, 0), j.partial(0, 1)], axis=2))
    null = vt[:, 1]
    null[(null[:, 0] < 0) | ((null[:, 0] == 0) & (null[:, 1] < 0))] *= -1.0
    return null, s


def singular_curve(germ: SurfaceGerm, tol: float = 1e-12):
    """Trace the zero set of the area density on a 256 x 256 grid of the
    domain rectangle; each component's samples are typed from one order-2
    jet of f."""
    lam = area_density(germ)
    U1 = germ.domain[0].grid(256)
    V1 = germ.domain[1].grid(256)
    U, V = np.meshgrid(U1, V1, indexing="ij")
    L = lam.grid(U, V)

    # seeds: the linear zero between each pair of horizontally, then
    # vertically, adjacent grid nodes whose signs differ, then the nodes
    # where lambda vanishes
    P, sign, seeds = np.stack([U, V], axis=-1), np.signbit(L), []
    for a, b in ((np.s_[:-1, :], np.s_[1:, :]), (np.s_[:, :-1], np.s_[:, 1:])):
        flip = sign[a] != sign[b]
        la, lb = L[a][flip], L[b][flip]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(la != lb, la / (la - lb), 0.5)[:, None]
        seeds.append((1 - t) * P[a][flip] + t * P[b][flip])
    seeds = np.concatenate(seeds + [P[np.abs(L) < tol]])
    if not len(seeds):
        return []

    q, res, _ = damped_gauss_newton(
        lambda X: lam.grid(X[:, 0], X[:, 1])[:, None],
        np.zeros((len(seeds), 1)), seeds, [d.lo for d in germ.domain],
        [d.hi for d in germ.domain], 40, h=1e-7)
    pts = q[res <= tol]
    if not len(pts):
        return []
    # deduplicate on the grid scale, keeping the first point of each cell
    h = np.array([U1[1] - U1[0], V1[1] - V1[0]])
    cells = np.round(pts / (0.5 * h)) + 0.0  # + 0.0 merges -0.0 into 0.0
    pts = pts[np.sort(np.unique(cells, axis=0, return_index=True)[1])]

    components = _split_components(pts, 3.0 * h.max())
    out = []
    for comp in components:
        # order along the dominant extent axis
        comp = comp[np.argsort(comp[:, np.argmax(np.ptp(comp, axis=0))])]
        j = germ.jet(comp, 2)
        grads = _lambda_gradient(j, germ.normal_field.points(comp))
        nulls, _ = _null_directions(j)
        g = np.linalg.norm(grads, axis=1)
        nondeg = g > 1e-6
        # type I: the null direction is transverse to the curve, whose
        # tangent is grad lambda turned by 90 degrees
        transverse = np.abs(np.sum(nulls * grads, axis=1)) > 1e-6 * g
        types = np.where(nondeg, np.where(transverse, "I", "II"), "degenerate")
        out.append(SingularComponent([SingularSample(*s) for s in zip(
            comp, j.value, grads, nulls, nondeg.tolist(), types.tolist())]))
    return out


def _split_components(pts, radius):
    """The points chained by steps within `radius`, one array per
    component, in the order of their first points."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree
    i, j = cKDTree(pts).query_pairs(radius, output_type="ndarray").T
    n, labels = connected_components(
        coo_matrix((np.ones(len(i)), (i, j)), shape=(len(pts),) * 2),
        directed=False)
    return [pts[labels == k] for k in range(n)]


# ------------------------------------------------- pointwise singular helpers

def limiting_normal_curvature(germ: SurfaceGerm, p=None) -> float:
    """Limiting normal curvature <f^'', nu> / |f^'|^2 of f^ = f o gamma, for
    the singular curve gamma through p (Saji, Umehara and Yamada).  The term
    Df gamma'' of f^'' is tangent to the surface and drops out, so it is
    D^2f(t, t) . nu / |Df t|^2 with t the unit tangent of gamma, grad lambda
    turned by 90 degrees, all from one order-2 jet of f at p."""
    p = np.asarray(p if p is not None else germ.base, dtype=float)
    j = germ.jet(p[None], 2)
    _, (s,) = _null_directions(j)
    if s[1] > 1e-6 * max(s[0], 1.0):
        raise NotSingular(f"'{germ.name}' is immersive at {tuple(p)}")
    nu = germ.normal_field.points(p[None])
    (g,) = _lambda_gradient(j, nu)
    if np.linalg.norm(g) < 1e-8:
        raise DegenerateSingularity(
            f"area density of '{germ.name}' is degenerate at {tuple(p)}")
    t = np.array([-g[1], g[0]]) / np.linalg.norm(g)
    fu, fv, fuu, fuv, fvv = (j.partial(*a)[0] for a in
                             ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)))
    d1 = fu * t[0] + fv * t[1]
    d2 = fuu * t[0] ** 2 + 2.0 * fuv * t[0] * t[1] + fvv * t[1] ** 2
    speed2 = float(d1 @ d1)
    if speed2 < 1e-16:
        raise DegenerateSingularity(
            "singular image is not regular at the base point (type II?)")
    return float(d2 @ nu[0]) / speed2


def distinguished_frame(germ: SurfaceGerm, p=None) -> GermFrame:
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
    nu = germ.normal_field(p)
    w = np.cross(e, nu)
    f_nn = (j.partial(2, 0) * null[0] ** 2 + 2.0 * j.partial(1, 1) * null[0]
            * null[1] + j.partial(0, 2) * null[1] ** 2)
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
