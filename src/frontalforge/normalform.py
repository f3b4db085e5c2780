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

import math
from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .curve import (SpaceCurve, VanishingCurvature, frenet, frenet_from_jet,
                    spline_curve)
from .numkit import Interval, Jet

__all__ = [
    "EdgeNormalForm", "SectionalCusp", "ScalarProfile", "SurfaceProfile",
    "sectional_cusp", "to_normal_form", "from_normal_form",
    "is_cuspidal_edge", "NormalFormError", "DegenerateCusp",
]


class NormalFormError(Exception):
    pass


class DegenerateCusp(NormalFormError):
    pass


# ------------------------------------------------------------- profile types

class ScalarProfile:
    """Scalar function of the station parameter, with a derivative."""

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
        f = ex.compile_expr(e, ("u",), params)
        df = ex.compile_expr(ex.diff(e, "u"), ("u",), params)

        def fn(u):
            return float(f(float(u)))

        def deriv(u):
            return float(df(float(u)))

        return cls(fn, deriv, expr=e, params=params)

    @classmethod
    def from_samples(cls, us, values):
        from scipy.interpolate import CubicSpline
        sp = CubicSpline(np.asarray(us, float), np.asarray(values, float))
        dsp = sp.derivative()
        return cls(lambda u: float(sp(u)), lambda u: float(dsp(u)),
                   samples=(np.asarray(us, float), np.asarray(values, float)))

    @classmethod
    def constant(cls, value):
        v = float(value)
        return cls.from_expr(ex.num(v))

    def __call__(self, u: float) -> float:
        return self._fn(u)

    def deriv(self, u: float) -> float:
        if self._deriv is not None:
            return self._deriv(u)
        h = 1e-6 * max(1.0, abs(u))
        d1 = (self._fn(u + h) - self._fn(u - h)) / (2 * h)
        d2 = (self._fn(u + 2 * h) - self._fn(u - 2 * h)) / (4 * h)
        return (4 * d1 - d2) / 3.0

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
    """Function of (station, transverse) used for the coefficients a and b."""

    def __init__(self, fn, expr=None, params=None, grid=None):
        self._fn = fn
        self.expr = expr
        self.params = dict(params or {})
        self.grid = grid  # (us, vs, values)

    @classmethod
    def from_expr(cls, source, params=None):
        e = ex.parse(source) if isinstance(source, str) else source
        params = dict(params or {})
        f = ex.compile_expr(e, ("u", "v"), params)

        def fn(u, v):
            return float(f(float(u), float(v)))

        return cls(fn, expr=e, params=params)

    @classmethod
    def from_grid(cls, us, vs, values):
        from scipy.interpolate import RectBivariateSpline
        us = np.asarray(us, float)
        vs = np.asarray(vs, float)
        values = np.asarray(values, float)
        sp = RectBivariateSpline(us, vs, values,
                                 kx=min(3, len(us) - 1), ky=min(3, len(vs) - 1))
        return cls(lambda u, v: float(sp(u, v)[0, 0]), grid=(us, vs, values))

    @classmethod
    def constant(cls, value):
        return cls.from_expr(ex.num(float(value)))

    def __call__(self, u: float, v: float) -> float:
        return self._fn(u, v)

    def along_edge(self, u: float) -> float:
        return self._fn(u, 0.0)

    @property
    def is_expression(self) -> bool:
        return self.expr is not None

    def negated(self) -> "SurfaceProfile":
        if self.expr is not None:
            return SurfaceProfile.from_expr(ex.neg(self.expr), self.params)
        if self.grid is not None:
            us, vs, vals = self.grid
            return SurfaceProfile.from_grid(us, vs, -vals)
        return SurfaceProfile(lambda u, v: -self._fn(u, v))

    def to_json(self):
        if self.expr is not None:
            return {"kind": "expr", "source": ex.to_source(self.expr),
                    "params": self.params}
        if self.grid is not None:
            us, vs, vals = self.grid
            return {"kind": "grid", "u": list(map(float, us)),
                    "v": list(map(float, vs)),
                    "values": [list(map(float, row)) for row in vals]}
        raise NormalFormError("profile backed by an opaque callable")

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

    def frame(self, u: float):
        return frenet(self.crease, u)

    def kappa(self, u: float) -> float:
        return self.frame(u).kappa

    def tau(self, u: float) -> float:
        return self.frame(u).tau

    def stations(self, n: int = 129) -> np.ndarray:
        return self.interval.grid(n)

    # geometry ---------------------------------------------------------------

    def evaluate(self, u: float, v: float) -> np.ndarray:
        if self.a is None or self.b is None:
            raise NormalFormError(
                "no surface to evaluate: a and b are unset on an angle-only "
                "isomer, which fixes only the crease and the cuspidal angle")
        fr = self.frame(u)
        th = self.theta(u)
        D = math.cos(th) * fr.n - math.sin(th) * fr.b
        Dp = math.sin(th) * fr.n + math.cos(th) * fr.b
        return (fr.point + v * v * self.a(u, v) * D
                + v ** 3 * self.b(u, v) * Dp)

    def invariants(self, u: float) -> dict:
        fr = self.frame(u)
        th = self.theta(u)
        return {
            "theta": th,
            "kappa": fr.kappa,
            "tau": fr.tau,
            "kappa_s": fr.kappa * math.cos(th),
            "kappa_nu": fr.kappa * math.sin(th),
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
            crease_js = {"kind": "samples", "u": list(map(float, us)),
                         "points": [list(map(float, cr(u))) for u in us]}
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


def is_cuspidal_edge(nf: EdgeNormalForm, u: float | None = None,
                     tol: float = 1e-8) -> bool:
    """True when b(u, 0) never vanishes (genuine cuspidal edge, not just a
    generalized one)."""
    if u is not None:
        return abs(nf.b.along_edge(u)) > tol
    return all(abs(nf.b.along_edge(x)) > tol for x in nf.stations(129))


# -------------------------------------------------------------- construction

def from_normal_form(nf: EdgeNormalForm):
    """Realize the normal form as a surface germ.  When all ingredients are
    expressions the germ is expression-backed, with exact jets and an
    analytic normal; a sampled normal form gives a germ that can only be
    evaluated at points, with no jets and no normal."""
    from .germ import SurfaceGerm

    hw = nf.halfwidth
    dom = (nf.interval, Interval(-hw, hw))
    cuspidal = is_cuspidal_edge(nf)
    stype = "cuspidal_edge" if cuspidal else "generalized_cuspidal_edge"
    if (nf.crease.is_expression and nf.theta.is_expression
            and nf.a.is_expression and nf.b.is_expression):
        f, nu = _nf_expression_maps(nf)
        g = SurfaceGerm(f, dom, normal_map=nu, name="nf_germ", sing_type=stype)
    else:
        g = SurfaceGerm(_NFMap(nf), dom, name="nf_germ", sing_type=stype)
    g.nf_source = nf
    return g


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


class _NFMap:
    """Numeric realization of a normal form: point values only, no jets."""

    def __init__(self, nf: EdgeNormalForm):
        self.nf = nf
        self.variables = ("u", "v")

    def __call__(self, point) -> np.ndarray:
        u, v = float(point[0]), float(point[1])
        return self.nf.evaluate(u, v)


# ---------------------------------------------------------------- extraction

class _EdgeChart:
    """Chart data for a germ whose singular set is the axis {v = 0}."""

    def __init__(self, germ, tol: float = 1e-10):
        self.germ = germ
        jets = [germ.jet((u, 0.0), 1) for u in germ.domain[0].grid(17)]
        worst = max(float(np.linalg.norm(j.partial(0, 1))) for j in jets)
        if worst > 1e-8:
            raise NormalFormError(
                "normal-form extraction expects the singular set along {v=0}; "
                "bring the germ into co-rank-one coordinates first")
        speeds = [float(np.linalg.norm(j.partial(1, 0))) for j in jets]
        self.unit_speed = max(abs(s - 1.0) for s in speeds) < 1e-9
        if not self.unit_speed:
            sp = [float(np.linalg.norm(germ.jet((u, 0.0), 1).partial(1, 0)))
                  for u in germ.domain[0].grid(257)]
            if min(sp) < 1e-10:
                raise VanishingCurvature(
                    "singular image is not regular along the edge")

    def station_params(self, n: int) -> np.ndarray:
        # stations equally spaced in the germ's own u; for non-unit-speed
        # edges theta/kappa_s remain parametrization invariants
        return self.germ.domain[0].grid(n)


def _edge_frenet(germ, u: float):
    j = germ.jet((u, 0.0), 3)
    restricted = Jet(1, 3, {(k,): j.partial(k, 0) for k in range(4)})
    return frenet_from_jet(u, restricted), j


def _section_jets(germ, u: float):
    """(frame, sigma''(0), sigma'''(0)) of the planar section at station u."""
    fr, j = _edge_frenet(germ, u)
    e, n, b = fr.e, fr.n, fr.b
    fu = j.partial(1, 0)
    fv = j.partial(0, 1)
    Fu = float(fu @ e)
    Fv = float(fv @ e)
    A1 = -Fv / Fu
    fuu, fuv, fvv = j.partial(2, 0), j.partial(1, 1), j.partial(0, 2)
    fuuv, fuvv, fvvv = j.partial(2, 1), j.partial(1, 2), j.partial(0, 3)
    fuuu = j.partial(3, 0)
    A2 = -(float(fuu @ e) * A1 * A1 + 2 * float(fuv @ e) * A1
           + float(fvv @ e)) / Fu
    vec2 = fuu * A1 * A1 + 2 * fuv * A1 + fvv
    vec3 = (fuuu * A1 ** 3 + 3 * fuuv * A1 * A1 + 3 * fuvv * A1 + fvvv
            + 3 * (fuu * A1 + fuv) * A2)
    sigma2 = np.array([float(vec2 @ n), float(vec2 @ b)])
    sigma3 = np.array([float(vec3 @ n), float(vec3 @ b)])
    return fr, sigma2, sigma3


def _station_invariants(germ, u: float):
    return _invariants_of_section(u, *_section_jets(germ, u))


def _invariants_of_section(u: float, fr, sigma2, sigma3):
    norm2 = float(np.linalg.norm(sigma2))
    if norm2 < 1e-10:
        raise DegenerateCusp(
            f"transverse section at u={u} has a degenerate cusp")
    theta = math.atan2(-sigma2[1], sigma2[0])
    a0 = 0.5 * norm2
    d = sigma2 / norm2
    dperp = np.array([-d[1], d[0]])
    b0 = float(sigma3 @ dperp) / 6.0
    return fr, theta, a0, b0


@dataclass
class SectionalCusp:
    """Planar section of a germ by the normal plane at one station."""

    station: float
    frame: object                # FrenetSample of the crease
    v: np.ndarray                # section parameter samples
    domain_u: np.ndarray         # A(v): solved station coordinate
    sigma: np.ndarray            # section in (n, b) coordinates, shape (nv, 2)
    w: np.ndarray                # half-arc-length at each sample
    sigma2: np.ndarray           # sigma''(0)
    sigma3: np.ndarray           # sigma'''(0)
    theta: float
    a0: float
    b0: float


def _solve_section(germ, u0: float, fr, vs, tol=1e-12):
    """Newton continuation of (f(u, v) - c(u0)) . e = 0 for u = A(v)."""
    e = fr.e
    base = fr.point
    out_u = np.empty(len(vs))
    out_sigma = np.empty((len(vs), 2))
    order = np.argsort(np.abs(vs), kind="stable")
    guesses = {}
    for idx in order:
        v = vs[idx]
        ukey = min((k for k in guesses if abs(vs[k]) <= abs(v)),
                   key=lambda k: abs(vs[k] - v), default=None)
        u = guesses[ukey] if ukey is not None else u0
        for _ in range(60):
            j = germ.jet((u, v), 1)
            F = float((j.value - base) @ e)
            if abs(F) < tol:
                break
            dF = float(j.partial(1, 0) @ e)
            if abs(dF) < 1e-14:
                raise NormalFormError(
                    f"section continuation stalled at (u={u}, v={v})")
            u -= F / dF
        else:
            raise NormalFormError(
                f"section solve at station u0={u0}, v={v} did not converge "
                f"in 60 Newton steps: |F| = {abs(F):.3e} >= tol {tol:.1e}")
        guesses[idx] = u
        val = germ((u, v)) - base
        out_u[idx] = u
        out_sigma[idx] = (float(val @ fr.n), float(val @ fr.b))
    return out_u, out_sigma


def sectional_cusp(germ, u0: float, nv: int = 65,
                   halfwidth: float | None = None, tol: float = 1e-12) -> SectionalCusp:
    _EdgeChart(germ)  # checks that the germ is singular along {v = 0}
    hw = halfwidth if halfwidth is not None else 0.98 * germ.domain[1].hi
    fr, sigma2, sigma3 = _section_jets(germ, u0)
    _, theta, a0, b0 = _invariants_of_section(u0, fr, sigma2, sigma3)
    vs = np.linspace(-hw, hw, nv)
    us, sigma = _solve_section(germ, u0, fr, vs, tol)
    # half-arc-length per sample via trapezoid of |d sigma / dv|
    from scipy.interpolate import CubicSpline
    sp = CubicSpline(vs, sigma, axis=0)
    dsp = sp.derivative()
    dense = np.linspace(-hw, hw, 8 * nv + 1)
    speeds = np.linalg.norm(dsp(dense), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (speeds[1:] + speeds[:-1]) * np.diff(dense))])
    cum_at = np.interp(vs, dense, cum)
    zero = np.interp(0.0, dense, cum)
    w = np.sign(vs) * np.sqrt(np.abs(cum_at - zero))
    return SectionalCusp(u0, fr, vs, us, sigma, w, sigma2, sigma3,
                         theta, a0, b0)


def to_normal_form(germ, n_stations: int = 129, nv: int = 65,
                   halfwidth: float | None = None,
                   tol: float = 1e-12) -> EdgeNormalForm:
    """Extract (crease, theta, a, b) from a germ singular along {v = 0}.

    theta, kappa_s, kappa_nu are parametrization invariants; a and b are
    reported in the germ's own transverse parameter (exact round trips with
    `from_normal_form`).
    """
    chart = _EdgeChart(germ)
    us = chart.station_params(n_stations)
    hw = halfwidth if halfwidth is not None else germ.domain[1].hi

    thetas = np.empty(n_stations)
    a_grid = np.empty((n_stations, nv))
    b_grid = np.empty((n_stations, nv))
    vs = np.linspace(-hw, hw, nv)
    i0 = nv // 2  # vs grid is symmetric, middle sample is v = 0
    for i, u0 in enumerate(us):
        fr, theta, a0, b0 = _station_invariants(germ, u0)
        thetas[i] = theta
        d = np.array([math.cos(theta), -math.sin(theta)])
        dperp = np.array([math.sin(theta), math.cos(theta)])
        _, sigma = _solve_section(germ, u0, fr, vs, tol)
        x = sigma @ d
        y = sigma @ dperp
        with np.errstate(divide="ignore", invalid="ignore"):
            a_grid[i] = np.where(vs != 0.0, x / np.maximum(vs * vs, 1e-300), a0)
            b_grid[i] = np.where(vs != 0.0, y / np.where(vs != 0.0, vs ** 3, 1.0), b0)
        a_grid[i, i0] = a0
        b_grid[i, i0] = b0
    thetas = np.unwrap(thetas)

    crease_map = _EdgeCurveMap(germ)
    crease = SpaceCurve(crease_map, germ.domain[0], germ.name + "_crease")
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
    """The edge u -> f(u, 0) of a germ, with jets restricted from the germ."""

    def __init__(self, germ):
        self.germ = germ

    def __call__(self, u) -> np.ndarray:
        u = float(np.atleast_1d(u)[0])
        return self.germ((u, 0.0))

    def eval_jet(self, point, order: int = 3) -> Jet:
        u = float(np.atleast_1d(point)[0])
        j = self.germ.jet((u, 0.0), order)
        return Jet(1, order, {(k,): j.partial(k, 0) for k in range(order + 1)})
