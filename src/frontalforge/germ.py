"""Surface germs in 3-space: normals, area density, singular sets, frames.

A germ is an expression map (u, v) -> R^3 around a base point, so it has
exact jets of any order.  Frontal germs carry a unit normal along the map:
an analytic (unnormalized) normal expression on the wave-front catalog
entries, else the limits of f_u x f_v continued from the base point, the
one normal field that plane curves use too.  On the singular set, the
gradient of the area density, the null directions and the limiting normal
curvature all come from one order-2 jet of f and the unit normal.
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
    "SurfaceGerm", "NormalField", "area_density",
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


class _Frontal:
    """An expression map of d variables on a box, with a `NormalField`
    and the derivative maps of f, one per variable."""

    def __init__(self, map_, domain, base, normal_map, name: str):
        self.map, self.domain, self.base, self.name = map_, domain, base, name
        self.normal_map = normal_map  # unnormalized normal, may be None
        self._partials = [map_.diff(x) for x in map_.variables]

    def points(self, X) -> np.ndarray:
        """f on the rows of an (N, d) array (or (N,) on a curve), as (N, m),
        from the map's checked grid evaluation `MapDef.values`."""
        X = np.asarray(X, dtype=float).reshape(-1, len(self.map.variables))
        return self.map.values(dict(zip(self.map.variables, X.T))).T.copy()

    def lift_points(self, X):
        """(f, nu) on the rows of an (N, d) array, each (N, m)."""
        return self.points(X), self.normal_field.points(X)

    @cached_property
    def normal_field(self) -> "NormalField":
        """The unit normal field, built on first use."""
        return NormalField(self)

    def partials_grid(self, *arrays):
        """(f_u, f_v), or (c',) on a curve, over broadcastable arrays."""
        env = dict(zip(self.map.variables, arrays))
        return tuple(d.eval_grid(env) for d in self._partials)

    def jet(self, point, order: int = 3) -> Jet:
        return self.map.eval_jet(point, order)


class SurfaceGerm(_Frontal):
    def __init__(self, map_, domain, base=(0.0, 0.0), normal_map=None,
                 name: str = "germ", sing_type: str | None = None):
        if not isinstance(map_, ex.MapDef):
            raise GermError(f"germ '{name}' needs an expression map, "
                            f"not {type(map_).__name__}")
        if not (normal_map is None or isinstance(normal_map, ex.MapDef)):
            raise GermError(f"the normal map of '{name}' must be an "
                            "expression map or None")
        super().__init__(map_, tuple(d if isinstance(d, Interval)
                                     else Interval(*d) for d in domain),
                         (float(base[0]), float(base[1])), normal_map, name)
        self.sing_type = sing_type

    def __call__(self, point) -> np.ndarray:
        return np.asarray(self.map(point), dtype=float)

    jet = _Frontal.jet  # its own name, which bench/tracing.py rebinds

    def grid(self, nu: int, nv: int):
        return self.domain[0].grid(nu), self.domain[1].grid(nv)


# --------------------------------------------------------------- normal field

class NormalField:
    """Continuous unit normal of a frontal of one or two variables: a
    `SurfaceGerm`, or a plane curve (`match.PlaneMap`).

    An analytic normal, when the frontal has one, is normalized as it is.
    Otherwise the raw normal, the rotated c' of a curve or f_u x f_v of a
    surface, is normalized, or replaced by its limit where it vanishes or
    is not finite (`_unit`, `_limit`), and takes the sign of its
    continuation from the nearest node of a grid oriented by continuation
    from node to node (`_orient`, `_continue`), on which the base point
    keeps its own normal.
    """

    _NODES = {1: 1024, 2: 112}  # nodes per axis of the orientation grid
    _DIRECTIONS = {1: np.ones((1, 1)), 2: np.array([  # probe directions
        (1.0, 0.0), (0.0, 1.0), (0.7071067811865476, 0.7071067811865476),
        (0.7071067811865476, -0.7071067811865476)])}

    def __init__(self, frontal):
        self.frontal = frontal
        self.dim = len(frontal.map.variables)
        if frontal.normal_map is None:
            self._orient()

    def __call__(self, point) -> np.ndarray:
        """The unit normal at one point: the one-row case of `points`."""
        return self.points(np.reshape(point, (1, self.dim)))[0]

    def points(self, X) -> np.ndarray:
        """The unit normal on the rows of an (N, d) array, as (N, m), on
        the tape's grid path.  An analytic normal shorter than 1e-13 raises
        `NotAFrontal`; so does a row where the raw normal has no limit."""
        X = np.asarray(X, dtype=float).reshape(-1, self.dim)
        g = self.frontal
        if g.normal_map is not None:
            raw = g.normal_map.values(dict(zip(g.normal_map.variables, X.T))).T
            n = np.linalg.norm(raw, axis=1)
            bad = np.flatnonzero(~(n >= 1e-13))
            if bad.size:
                raise NotAFrontal(f"analytic normal of '{g.name}' vanishes "
                                  f"at {tuple(X[bad[0]].tolist())}")
            return raw / n[:, None]
        N = self._unit(X)
        return N * self._sign(X, N)[:, None]

    def _sign(self, X, N) -> np.ndarray:
        """The sign s, one per row, that makes s N[i] the continuation of
        the oriented normal of the node nearest X[i] (`_continue`, which
        cuts the step when that node lies on a fast edge)."""
        near = tuple(map(_nearest, self._axes, X.T))
        node = np.column_stack([a[i] for a, i in zip(self._axes, near)])
        return self._continue(node, X, self._nus[near], N, self._fast[near])

    def _unit(self, X) -> np.ndarray:
        """The raw unit normal, up to sign, on the rows of X, from
        `partials_grid`.  A row where the raw normal is not finite or at
        most its floor, 1e-7 times the d-th power of the row's longest
        first partial, takes its limit (`_limit`)."""
        parts = [p.T for p in self.frontal.partials_grid(*X.T)]
        raw = _raw_normal(parts)
        n = np.linalg.norm(raw, axis=1)
        sq = [np.einsum("ij,ij->i", p, p) for p in parts]
        floor = 1e-7 * np.maximum(sq[0], sq[-1]) ** (0.5 * self.dim)
        ok = (n > floor) & (n < np.inf)
        out = np.divide(raw, n[:, None], out=np.empty_like(raw),
                        where=ok[:, None])
        if not ok.all():
            out[~ok] = self._limit(X[~ok], floor[~ok])
        return out

    def _limit(self, P, floor) -> np.ndarray:
        """The unit limits of the raw normal, up to sign, at the rows of P:
        along each probe direction e, its first Taylor coefficient along
        p + t e above the row's floor, from one order-3 jet, then one
        order-12 jet for the rows where no direction has one.  The
        directions must agree up to sign, and every row must have a limit,
        or `NotAFrontal` names the first row where it fails."""
        D = self._DIRECTIONS[self.dim]
        out = np.empty((len(P), self.dim + 1))
        rows = np.arange(len(P))
        for order in (3, 12):
            C = _raw_coefficients(self.frontal.jet(P[rows], order), D, order)
            n = np.linalg.norm(C, axis=-1)
            above = n > floor[rows, None]
            found = above.any(axis=0)
            r, dirs = np.ogrid[:len(rows), :len(D)]
            first = above.argmax(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                est = C[first, r, dirs] / n[first, r, dirs][..., None]
            ref = est[r[:, 0], found.argmax(axis=1)]
            flip = np.where(np.einsum("ndk,nk->nd", est, ref) < 0, -1.0, 1.0)
            dist = np.linalg.norm(flip[..., None] * est - ref[:, None], axis=-1)
            gap = np.where(found, dist, -np.inf).max(axis=1)  # -inf: none
            bad = np.flatnonzero(gap > 1e-6)
            if bad.size:
                raise NotAFrontal(
                    f"'{self.frontal.name}' has no single-valued normal at "
                    f"{tuple(P[rows[bad[0]]].tolist())} (directional limits "
                    f"disagree by {gap[bad[0]]:.2e})")
            out[rows[gap >= 0]] = ref[gap >= 0]
            rows = rows[gap < 0]
            if not rows.size:
                return out
        raise NotAFrontal(
            f"'{self.frontal.name}' has no normal at "
            f"{tuple(P[rows[0]].tolist())} (its raw normal has no Taylor "
            "coefficient above its floor below order 12)")

    def _continue(self, A, B, NA, NB, check) -> np.ndarray:
        """The sign s, one per segment from row A[i] to row B[i], that makes
        s NB[i] the continuation of the unit normal NA[i] along it.  A
        segment not in `check` whose normals are within 30 degrees up to
        sign takes the sign of their dot product.  The others are cut into
        k = 2, 4, ..., 64 equal steps until every step is within 30 degrees
        up to sign, and take the product of the steps' signs, or raise
        `NotAFrontal`."""
        dot = np.sum(NA * NB, axis=1)
        s = np.where(dot < 0, -1.0, 1.0)
        todo, k = np.flatnonzero(check | ~(np.abs(dot) >= _COS30)), 2
        while todo.size:
            if k > 64:
                raise NotAFrontal(
                    f"'{self.frontal.name}' has no continuous normal from "
                    f"{tuple(A[todo[0]].tolist())} to "
                    f"{tuple(B[todo[0]].tolist())} (it turns by more than 30 "
                    "degrees within 1/64 of the segment)")
            t = np.arange(1, k)[:, None] / k
            P = A[todo, None] + t * (B - A)[todo, None]
            N = self._unit(P.reshape(-1, self.dim)).reshape(
                len(todo), k - 1, -1)
            N = np.concatenate([NA[todo, None], N, NB[todo, None]], axis=1)
            d = np.sum(N[:, 1:] * N[:, :-1], axis=-1)
            done = (np.abs(d) >= _COS30).all(axis=1)
            s[todo[done]] = np.where(d[done] < 0, -1.0, 1.0).prod(axis=1)
            todo, k = todo[~done], 2 * k
        return s

    def _orient(self) -> None:
        """The oriented normals `_nus` on the grid of nodes `_axes`, an even
        count per axis, so that a symmetric domain has no node at its
        middle: the raw unit normals, continued by `_continue` from node
        to node along the first axis on the lowest line and then along the
        other axis.  `_fast` marks the nodes of a fast edge, one whose end
        normals are more than 30 degrees apart up to sign.  The other edges
        along the first axis must then join agreeing normals, or
        `NotAFrontal` names the cell the normal does not close around.
        Last, the grid takes the sign that lets the base point keep its
        own normal."""
        g, m = self.frontal, self._NODES[self.dim]
        self._axes = [d.grid(m) for d in
                      (g.domain if self.dim == 2 else (g.domain,))]
        nodes = np.stack(np.meshgrid(*self._axes, indexing="ij"), axis=-1)
        nodes = nodes.reshape(m, -1, self.dim)  # (m, 1, 1) on a curve
        N = self._unit(nodes.reshape(-1, self.dim)).reshape(
            m, -1, self.dim + 1)
        self._fast, signs = np.zeros(N.shape[:2], dtype=bool), []
        for a, b in ((np.s_[:-1], np.s_[1:]),
                     (np.s_[:, :-1], np.s_[:, 1:]))[:self.dim]:
            A, B, NA, NB = (Y[c].reshape(-1, Y.shape[2]) for Y in (nodes, N)
                            for c in (a, b))
            shape = N[a].shape[:2]
            signs.append(self._continue(A, B, NA, NB, False).reshape(shape))
            fast = ~(np.abs(np.sum(NA * NB, axis=1)) >= _COS30)
            self._fast[a] |= fast.reshape(shape)
            self._fast[b] |= fast.reshape(shape)
        du, dv = signs + [np.ones((m, 0))] * (2 - self.dim)
        sign = np.cumprod(np.r_[1.0, du[:, 0]])[:, None] * np.cumprod(
            np.hstack([np.ones((m, 1)), dv]), axis=1)
        bad = np.argwhere(du * sign[1:] * sign[:-1] < 0)
        if len(bad):
            (i, j), (us, vs) = bad[0], self._axes
            raise NotAFrontal(
                f"'{g.name}' has no continuous normal around the cell "
                f"[{us[i]:.6g}, {us[i + 1]:.6g}] x [{vs[j - 1]:.6g}, {vs[j]:.6g}]")
        self._fast = self._fast.reshape((m,) * self.dim)
        sign = sign.reshape(self._fast.shape)
        self._nus = sign[..., None] * N.reshape(sign.shape + (-1,))
        base = np.reshape(g.base, (1, self.dim))
        self._nus *= self._sign(base, self._unit(base))[0]

_COS30 = 0.8660254037844387  # the widest step `_continue` reads as it is


def _raw_normal(parts) -> np.ndarray:
    """The raw normal from the first partials of f, each (..., m): the
    rotated c' of a curve, f_u x f_v of a surface."""
    if len(parts) == 1:
        return np.stack([-parts[0][..., 1], parts[0][..., 0]], axis=-1)
    return np.cross(parts[0], parts[1])


def _raw_coefficients(j: Jet, D, K: int) -> np.ndarray:
    """Taylor coefficients of orders 0 to K - 1 of the raw normal along
    p + t e for each row e of D, at the N points of an order-K jet of f,
    shape (K, N, len(D), m).  The raw normal is multilinear in the first
    partials: its coefficient of order k sums it over their coefficients
    whose orders add up to k."""
    dim = j.nvars

    def splits(k):  # the multi-indices of order k, first entry ascending
        return [(i, k - i) for i in range(k + 1)] if dim == 2 else [(k,)]

    def along(k, unit):
        # k-th Taylor coefficient of the first partial `unit` along p + t e
        betas = splits(k)
        W = [math.prod([math.factorial(k) // math.prod(map(math.factorial, b))]
                       + [D[:, a] ** p for a, p in enumerate(b)]) for b in betas]
        P = [j.partial(tuple(map(sum, zip(b, unit)))) for b in betas]
        return np.einsum("id,inx->ndx", W, P) / math.factorial(k)

    parts = [[along(k, e) for k in range(K)] for e in np.eye(dim, dtype=int)]
    terms = [[_raw_normal([parts[a][i] for a, i in enumerate(s)])
              for s in splits(k)] for k in range(K)]
    return np.array([sum(t[1:], t[0]) for t in terms])


def _nearest(axis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the node of a sorted axis nearest to each x (the lower
    one on a tie)."""
    j = np.searchsorted(axis[1:-1], x) + 1
    return j - (np.abs(axis[j - 1] - x) <= np.abs(axis[j] - x))


# --------------------------------------------------------------- area density

def area_density(germ: SurfaceGerm):
    """lambda(u, v) = det(f_u, f_v, nu) = (f_u x f_v) . nu of a germ, as
    a callable on one point; `.grid(U, V)` evaluates it over broadcastable
    grids on the tape's grid path."""
    nf = germ.normal_field

    def grid(U, V):
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        fu, fv = germ.partials_grid(U.ravel(), V.ravel())
        nu = nf.points(np.column_stack([U.ravel(), V.ravel()]))
        return np.sum(np.cross(fu, fv, axis=0).T * nu, axis=1).reshape(U.shape)

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
