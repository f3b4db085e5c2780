"""Normal form of a (generalized) cuspidal edge along its singular curve.

A germ with a cuspidal singular curve is encoded as

    f(u, v) = c(u) + v^2 a(u, v) * D(u) + v^3 b(u, v) * Dp(u),
    D  = cos(theta) n - sin(theta) b,
    Dp = sin(theta) n + cos(theta) b,

where c is the unit-speed singular image (crease) with Frenet frame
(e, n, b), theta(u) the cuspidal angle, a(u, 0) > 0.  The induced
invariants are the singular curvature kappa_s = kappa cos(theta) and the
limiting normal curvature kappa_nu = kappa sin(theta).
"""
from __future__ import annotations

import numpy as np
from scipy.interpolate import CubicSpline, RectBivariateSpline

from . import exprlang as ex
from .curve import (SpaceCurve, VanishingCurvature, frenet,
                    frenet_from_derivatives, spline_curve)
from .numkit import Interval

__all__ = [
    "EdgeNormalForm", "ScalarProfile", "SurfaceProfile", "to_normal_form",
    "from_normal_form", "is_cuspidal_edge", "NormalFormError",
    "DegenerateCusp",
]


class NormalFormError(Exception):
    pass


class DegenerateCusp(NormalFormError):
    pass


# ------------------------------------------------------------- profile types

def _scalar(x):
    """A float for a 0-d result, else the array."""
    return float(x) if np.ndim(x) == 0 else x


def _grid_fn(e, variables, params):
    """`e` over broadcastable arrays, from the checked grid evaluation
    `MapDef.values`."""
    m = ex.MapDef("profile", variables, [e], params)

    def fn(*xs):
        return m.values({n: np.asarray(x, dtype=float)
                         for n, x in zip(variables, xs)})[0]

    return fn


class ScalarProfile:
    """Scalar function of the station parameter, with a derivative; the
    expression and sample backings take a station or an array of them."""

    def __init__(self, fn, deriv=None, expr=None, params=None, samples=None):
        self._fn = fn
        self._deriv = deriv
        self.expr = expr          # optional exprlang AST in variable 'u'
        self.params = dict(params or {})
        self.samples = samples    # optional (us, values) used to build this

    @classmethod
    def from_expr(cls, source, params=None):
        e = ex.parse(source) if isinstance(source, str) else source
        params = dict(params or {})
        return cls(_grid_fn(e, ("u",), params),
                   _grid_fn(ex.diff(e, "u"), ("u",), params),
                   expr=e, params=params)

    @classmethod
    def from_samples(cls, us, values):
        sp = CubicSpline(np.asarray(us, float), np.asarray(values, float))
        dsp = sp.derivative()
        return cls(sp, dsp,
                   samples=(np.asarray(us, float), np.asarray(values, float)))

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls.from_expr(ex.num(v))

    def __call__(self, u):
        return _scalar(self._fn(u))

    def deriv(self, u):
        if self._deriv is not None:
            return _scalar(self._deriv(u))
        h = 1e-6 * np.maximum(1.0, np.abs(u))
        d1 = (self._fn(u + h) - self._fn(u - h)) / (2 * h)
        d2 = (self._fn(u + 2 * h) - self._fn(u - 2 * h)) / (4 * h)
        return _scalar((4 * d1 - d2) / 3.0)

    def negated(self) -> "ScalarProfile":
        if self.expr is not None:
            return ScalarProfile.from_expr(ex.neg(self.expr), self.params)
        if self.samples is not None:
            return ScalarProfile.from_samples(self.samples[0], -self.samples[1])
        return ScalarProfile(lambda u: -self._fn(u),
                             (lambda u: -self._deriv(u)) if self._deriv else None)

    @property
    def is_expression(self) -> bool:
        return self.expr is not None

    def to_json(self):
        if self.expr is not None:
            return {"kind": "expr", "source": ex.to_source(self.expr),
                    "params": self.params}
        if self.samples is not None:
            return {"kind": "samples", "u": list(map(float, self.samples[0])),
                    "values": list(map(float, self.samples[1]))}
        raise NormalFormError("profile backed by an opaque callable")

    @classmethod
    def from_json(cls, data):
        if data["kind"] == "expr":
            return cls.from_expr(data["source"], data.get("params"))
        return cls.from_samples(np.array(data["u"]), np.array(data["values"]))


class SurfaceProfile:
    """Function of (station, transverse) used for the coefficients a and b,
    backed by an expression or by a grid; it takes broadcastable arrays."""

    def __init__(self, fn, expr=None, params=None, grid=None):
        self._fn = fn
        self.expr = expr
        self.params = dict(params or {})
        self.grid = grid  # (us, vs, values)

    @classmethod
    def from_expr(cls, source, params=None):
        e = ex.parse(source) if isinstance(source, str) else source
        params = dict(params or {})
        return cls(_grid_fn(e, ("u", "v"), params), expr=e, params=params)

    @classmethod
    def from_grid(cls, us, vs, values):
        us = np.asarray(us, float)
        vs = np.asarray(vs, float)
        values = np.asarray(values, float)
        sp = RectBivariateSpline(us, vs, values,
                                 kx=min(3, len(us) - 1), ky=min(3, len(vs) - 1))
        return cls(sp.ev, grid=(us, vs, values))

    @classmethod
    def constant(cls, value):
        return cls.from_expr(ex.num(float(value)))

    def __call__(self, u, v):
        return _scalar(self._fn(u, v))

    def along_edge(self, u):
        return self(u, 0.0)

    @property
    def is_expression(self) -> bool:
        return self.expr is not None

    def to_json(self):
        if self.expr is not None:
            return {"kind": "expr", "source": ex.to_source(self.expr),
                    "params": self.params}
        us, vs, vals = self.grid
        return {"kind": "grid", "u": list(map(float, us)),
                "v": list(map(float, vs)),
                "values": [list(map(float, row)) for row in vals]}

    @classmethod
    def from_json(cls, data):
        if data["kind"] == "expr":
            return cls.from_expr(data["source"], data.get("params"))
        return cls.from_grid(np.array(data["u"]), np.array(data["v"]),
                             np.array(data["values"]))


# ------------------------------------------------------------ EdgeNormalForm

class EdgeNormalForm:
    def __init__(self, crease: SpaceCurve, theta: ScalarProfile,
                 a: SurfaceProfile, b: SurfaceProfile,
                 halfwidth: float = 0.15, interval: Interval | None = None):
        self.crease = crease
        self.theta = theta
        self.a = a
        self.b = b
        self.halfwidth = float(halfwidth)
        self.interval = interval or crease.domain

    # Frenet data of the crease -------------------------------------------

    def frame(self, u):
        return frenet(self.crease, u)

    def stations(self, n: int = 129) -> np.ndarray:
        return self.interval.grid(n)

    # geometry ---------------------------------------------------------------

    def evaluate(self, u, v) -> np.ndarray:
        """f(u, v) over broadcastable u and v, shape (*shape, 3); the crease
        frame is taken on the stations u only."""
        if self.a is None or self.b is None:
            raise NormalFormError(
                "no surface to evaluate: a and b are unset on an angle-only "
                "isomer, which fixes only the crease and the cuspidal angle")
        fr = self.frame(u)
        th = np.asarray(self.theta(u))[..., None]
        D = np.cos(th) * fr.n - np.sin(th) * fr.b
        Dp = np.sin(th) * fr.n + np.cos(th) * fr.b
        w = np.asarray(v, dtype=float)[..., None]
        a, b = (np.asarray(p(u, v))[..., None] for p in (self.a, self.b))
        return fr.point + w * w * a * D + w ** 3 * b * Dp

    def invariants(self, u) -> dict:
        fr = self.frame(u)
        th = self.theta(u)
        return {
            "theta": th,
            "kappa": fr.kappa,
            "tau": fr.tau,
            "kappa_s": fr.kappa * np.cos(th),
            "kappa_nu": fr.kappa * np.sin(th),
        }

    def to_json(self) -> dict:
        cr = self.crease
        if cr.is_expression:
            crease_js = {"kind": "expr", "components": cr.map.sources(),
                         "params": cr.map.params,
                         "variable": cr.map.variables[0],
                         "domain": [cr.domain.lo, cr.domain.hi]}
        else:
            us = cr.grid(257)
            crease_js = {"kind": "samples", "u": us.tolist(),
                         "points": cr(us).tolist()}
        return {
            "crease": crease_js,
            "theta": self.theta.to_json(),
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "halfwidth": self.halfwidth,
            "interval": [self.interval.lo, self.interval.hi],
        }

    @classmethod
    def from_json(cls, data: dict) -> "EdgeNormalForm":
        cj = data["crease"]
        if cj["kind"] == "expr":
            m = ex.MapDef("crease", (cj.get("variable", "u"),),
                          cj["components"], cj.get("params"))
            cr = SpaceCurve(m, Interval(*cj["domain"]), "crease")
        else:
            cr = spline_curve(np.array(cj["u"]), np.array(cj["points"]))
        return cls(cr, ScalarProfile.from_json(data["theta"]),
                   SurfaceProfile.from_json(data["a"]),
                   SurfaceProfile.from_json(data["b"]),
                   float(data["halfwidth"]), Interval(*data["interval"]))


def is_cuspidal_edge(nf: EdgeNormalForm) -> bool:
    """True when |b(u, 0)| exceeds 1e-8 at all 129 stations (genuine
    cuspidal edge, not just a generalized one)."""
    return bool(np.all(np.abs(nf.b.along_edge(nf.stations(129))) > 1e-8))


# -------------------------------------------------------------- construction

def from_normal_form(nf: EdgeNormalForm):
    """Realize the normal form as a surface germ, with exact jets and an
    analytic normal.  Every ingredient must be an expression: a sampled
    or unset one raises `NormalFormError`, which names it
    (`EdgeNormalForm.evaluate` evaluates any normal form directly)."""
    from .germ import SurfaceGerm

    other = [k for k, p in (("crease", nf.crease), ("theta", nf.theta),
                            ("a", nf.a), ("b", nf.b))
             if p is None or not p.is_expression]
    if other:
        raise NormalFormError(
            "a germ needs an expression normal form; not expressions: "
            + ", ".join(other))
    stype = ("cuspidal_edge" if is_cuspidal_edge(nf)
             else "generalized_cuspidal_edge")
    f, nu = _nf_expression_maps(nf)
    return SurfaceGerm(f, (nf.interval, Interval(-nf.halfwidth, nf.halfwidth)),
                       normal_map=nu, name="nf_germ", sing_type=stype)


def _nf_expression_maps(nf: EdgeNormalForm):
    m = nf.crease.map
    uvar = m.variables[0]
    c = [ex.subs(comp, uvar, ex.var("u")) for comp in m.components] \
        if uvar != "u" else list(m.components)
    params = dict(m.params)
    params.update(nf.theta.params)
    params.update(nf.a.params)
    params.update(nf.b.params)

    c1 = tuple(ex.diff(ci, "u") for ci in c)
    c2 = tuple(ex.diff(ci, "u") for ci in c1)
    s = ex.norm3(c1)
    e = tuple(ex.div(ci, s) for ci in c1)
    e1 = tuple(ex.diff(ei, "u") for ei in e)
    ne = ex.norm3(e1)
    n = tuple(ex.div(ei, ne) for ei in e1)
    bvec = ex.cross3(e, n)

    th = nf.theta.expr
    ae = nf.a.expr
    be = nf.b.expr
    ct, st = ex.call("cos", th), ex.call("sin", th)
    D = tuple(ex.sub(ex.mul(ct, n[i]), ex.mul(st, bvec[i])) for i in range(3))
    Dp = tuple(ex.add(ex.mul(st, n[i]), ex.mul(ct, bvec[i])) for i in range(3))
    v = ex.var("v")
    v2, v3 = ex.mul(v, v), ex.mul(ex.mul(v, v), v)
    comps = tuple(
        ex.add(c[i], ex.add(ex.mul(ex.mul(v2, ae), D[i]),
                            ex.mul(ex.mul(v3, be), Dp[i])))
        for i in range(3))
    f = ex.MapDef("nf_germ", ("u", "v"), comps, params)

    # unnormalized normal: f_u x (f_v / v), smooth across v = 0
    fu = tuple(ex.diff(comps[i], "u") for i in range(3))
    av = ex.diff(ae, "v")
    bv = ex.diff(be, "v")
    coef_a = ex.add(ex.mul(ex.num(2), ae), ex.mul(v, av))
    coef_b = ex.add(ex.mul(ex.num(3), ex.mul(v, be)), ex.mul(v2, bv))
    gvec = tuple(ex.add(ex.mul(coef_a, D[i]), ex.mul(coef_b, Dp[i]))
                 for i in range(3))
    nu = ex.MapDef("nf_germ_nu", ("u", "v"), ex.cross3(fu, gvec), params)
    return f, nu


# ---------------------------------------------------------------- extraction

def _check_edge_chart(germ):
    """Raise unless the germ is singular along {v = 0} with a regular
    edge image, from one `partials_grid` call on 257 edge stations."""
    us = germ.domain[0].grid(257)
    fu, fv = germ.partials_grid(us, np.zeros_like(us))
    if not np.linalg.norm(fv, axis=0).max() <= 1e-8:
        raise NormalFormError(
            "normal-form extraction expects the singular set along {v=0}; "
            "bring the germ into co-rank-one coordinates first")
    if not np.linalg.norm(fu, axis=0).min() >= 1e-10:
        raise VanishingCurvature(
            "singular image is not regular along the edge")


def _dot(a, b):
    """Dot products over the last axis, keeping it."""
    return np.sum(a * b, axis=-1, keepdims=True)


def _station(germ, u):
    """(frame, sigma''(0), sigma'''(0), theta, a0, b0) of the planar
    section at station u, or at each of a 1-D array of them, from one
    order-3 jet of the germ on the edge."""
    j = germ.jet(np.stack([u, np.zeros_like(u)], axis=-1), 3)
    fr = frenet_from_derivatives(u, [j.partial(k, 0) for k in range(4)])
    e, n, b = fr.e, fr.n, fr.b
    Fu = _dot(j.partial(1, 0), e)
    A1 = -_dot(j.partial(0, 1), e) / Fu
    fuu, fuv, fvv = j.partial(2, 0), j.partial(1, 1), j.partial(0, 2)
    fuuv, fuvv, fvvv = j.partial(2, 1), j.partial(1, 2), j.partial(0, 3)
    fuuu = j.partial(3, 0)
    A2 = -(_dot(fuu, e) * A1 * A1 + 2 * _dot(fuv, e) * A1 + _dot(fvv, e)) / Fu
    vec2 = fuu * A1 * A1 + 2 * fuv * A1 + fvv
    vec3 = (fuuu * A1 ** 3 + 3 * fuuv * A1 * A1 + 3 * fuvv * A1 + fvvv
            + 3 * (fuu * A1 + fuv) * A2)
    sigma2 = np.concatenate([_dot(vec2, n), _dot(vec2, b)], axis=-1)
    sigma3 = np.concatenate([_dot(vec3, n), _dot(vec3, b)], axis=-1)
    norm2 = np.linalg.norm(sigma2, axis=-1)
    flat = np.flatnonzero(np.ravel(norm2 < 1e-10))
    if flat.size:
        raise DegenerateCusp(f"transverse section at u={np.ravel(u)[flat[0]]}"
                             " has a degenerate cusp")
    theta = np.arctan2(-sigma2[..., 1], sigma2[..., 0])
    d = sigma2 / norm2[..., None]
    b0 = (sigma3[..., 1] * d[..., 0] - sigma3[..., 0] * d[..., 1]) / 6.0
    return fr, sigma2, sigma3, theta, 0.5 * norm2, b0


def _solve_sections(germ, fr, vs, tol):
    """u = A(u0, v) with (f(u, v) - c(u0)) . e = 0 for every station u0 of
    the Frenet data fr (one station or S of them) and every v, by one
    Newton iteration over all the samples at once; each starts at u0, and
    its step divides the residual from `germ.points` by the exact f_u . e
    from `germ.partials_grid`.  Returns A and the section sigma in (n, b)
    coordinates, shapes (S, nv) and (S, nv, 2)."""
    nv, u0 = len(vs), np.ravel(fr.u)
    U0 = np.repeat(u0, nv)
    V = np.tile(np.asarray(vs, dtype=float), len(u0))
    CENB = np.repeat(np.stack([fr.point, fr.e, fr.n, fr.b], axis=-2)
                     .reshape(-1, 4, 3), nv, axis=0)
    C, E = CENB[:, 0], CENB[:, 1]
    U, P = U0.copy(), np.empty_like(C)
    live = np.arange(len(U))
    for _ in range(60):
        Pl = germ.points(np.column_stack([U[live], V[live]]))
        F = np.einsum("ij,ij->i", Pl - C[live], E[live])
        done = np.abs(F) < tol
        P[live[done]] = Pl[done]
        live, F = live[~done], F[~done]
        if not live.size:
            break
        fu, _ = germ.partials_grid(U[live], V[live])
        dF = np.einsum("ji,ij->i", fu, E[live])
        stalled = live[~(np.abs(dF) >= 1e-14)]
        if stalled.size:
            k = stalled[0]
            raise NormalFormError(
                f"section continuation stalled at (u={U[k]}, v={V[k]})")
        U[live] -= F / dF
    else:
        k = live[0]
        raise NormalFormError(
            f"section solve at station u0={U0[k]}, v={V[k]} did not converge "
            f"in 60 Newton steps: |F| = {abs(F[0]):.3e} >= tol {tol:.1e}")
    sigma = np.einsum("ikj,ij->ik", CENB[:, 2:], P - C)
    return U.reshape(-1, nv), sigma.reshape(-1, nv, 2)


def to_normal_form(germ, n_stations: int = 129, nv: int = 65,
                   tol: float = 1e-12) -> EdgeNormalForm:
    """Extract (crease, theta, a, b) from a germ singular along {v = 0}.

    Stations are equally spaced in the germ's own u.  One order-3 jet on
    the edge, over all stations, gives the crease frame, theta and the
    v = 0 values a0, b0.  One batched Newton solve then finds every
    (station, v) sample of the normal-plane sections at once, with nv
    values v in [-h, h] for h the upper end of the germ's v-domain (the
    halfwidth of the result), and a and b are read off the sections as
    arrays.

    theta, kappa_s, kappa_nu are parametrization invariants; a and b are
    reported in the germ's own transverse parameter (exact round trips with
    `from_normal_form`).  nv must be odd, so that the middle section
    sample is v = 0.
    """
    if nv % 2 == 0:
        raise NormalFormError(
            f"nv = {nv} is even: the section grid needs an odd nv so that "
            "its middle sample is v = 0")
    _check_edge_chart(germ)
    us = germ.domain[0].grid(n_stations)
    hw = germ.domain[1].hi
    vs = np.linspace(-hw, hw, nv)

    fr, _, _, thetas, a0, b0 = _station(germ, us)
    _, sigma = _solve_sections(germ, fr, vs, tol)
    ct, st = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    x = sigma[..., 0] * ct - sigma[..., 1] * st
    y = sigma[..., 0] * st + sigma[..., 1] * ct
    with np.errstate(divide="ignore", invalid="ignore"):
        a_grid = x / (vs * vs)
        b_grid = y / vs ** 3
    i0 = nv // 2  # vs grid is symmetric, middle sample is v = 0
    a_grid[:, i0] = a0
    b_grid[:, i0] = b0
    thetas = np.unwrap(thetas)

    crease = SpaceCurve(_EdgeCurveMap(germ), germ.domain[0],
                        germ.name + "_crease")
    nf = EdgeNormalForm(
        crease,
        ScalarProfile.from_samples(us, thetas),
        SurfaceProfile.from_grid(us, vs, a_grid),
        SurfaceProfile.from_grid(us, vs, b_grid),
        halfwidth=hw, interval=germ.domain[0])
    nf.station_samples = us
    nf.theta_samples = thetas
    return nf


class _EdgeCurveMap:
    """The edge u -> f(u, 0) of a germ: its values and derivatives from
    one germ jet over all stations."""

    def __init__(self, germ):
        self.germ = germ

    def derivatives(self, us, order: int) -> np.ndarray:
        j = self.germ.jet(np.column_stack([us, 0.0 * us]), order)
        return np.array([j.partial(k, 0) for k in range(order + 1)])
