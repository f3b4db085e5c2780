"""Space curves: Frenet data, arc-length reparametrization, planarity, symmetry."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .geom import Line, Plane, make_reflection, make_rotation180
from .numkit import Interval, Jet, eval_jet, integrate, invert_monotone

__all__ = [
    "SpaceCurve", "FrenetSample", "frenet", "arclength_param",
    "shift_param", "center_param", "curve_length", "curve_plane",
    "curve_symmetry", "circle", "helix", "segment", "spline_curve",
    "SplineMap", "CurveError",
    "VanishingSpeed", "VanishingCurvature",
]


class CurveError(Exception):
    pass


class VanishingSpeed(CurveError):
    pass


class VanishingCurvature(CurveError):
    pass


class SpaceCurve:
    """A parametrized curve in R^3 on a closed interval."""

    def __init__(self, map_, domain: Interval, name: str = "curve"):
        self.map = map_
        self.domain = domain
        self.name = name

    def __call__(self, u: float) -> np.ndarray:
        return np.asarray(self.map(u), dtype=float)

    def point(self, u: float) -> np.ndarray:
        return self(u)

    def jet(self, u: float, order: int = 3) -> Jet:
        return eval_jet(self.map, (u,), order)

    def speed(self, u: float) -> float:
        return float(np.linalg.norm(self.jet(u, 1).partial(1)))

    def grid(self, n: int) -> np.ndarray:
        return self.domain.grid(n)

    @property
    def is_expression(self) -> bool:
        return isinstance(self.map, ex.MapDef)


@dataclass(frozen=True)
class FrenetSample:
    u: float
    point: np.ndarray
    e: np.ndarray
    n: np.ndarray
    b: np.ndarray
    kappa: float
    tau: float


def frenet_from_jet(u: float, jet: Jet) -> FrenetSample:
    c1 = jet.partial(1)
    c2 = jet.partial(2)
    c3 = jet.partial(3)
    g = float(np.linalg.norm(c1))
    if g < 1e-12:
        raise VanishingSpeed(f"curve speed vanishes at u={u}")
    cr = np.cross(c1, c2)
    ncr = float(np.linalg.norm(cr))
    kappa = ncr / g ** 3
    if ncr < 1e-12 * g ** 2:
        raise VanishingCurvature(f"curvature vanishes at u={u}")
    b = cr / ncr
    e = c1 / g
    n = np.cross(b, e)
    tau = float(np.dot(cr, c3)) / ncr ** 2
    return FrenetSample(u, jet.value.copy(), e, n, b, kappa, tau)


def frenet(curve: SpaceCurve, u: float) -> FrenetSample:
    return frenet_from_jet(u, curve.jet(u, 3))


class ReparamCurve:
    """Arc-length reparametrization of a base curve, with exact chain-rule jets."""

    def __init__(self, base: SpaceCurve, tol: float = 1e-12, n_nodes: int = 513):
        self.base = base
        nodes = base.grid(n_nodes)
        lengths = np.zeros(n_nodes)
        for i in range(n_nodes - 1):
            lengths[i + 1] = lengths[i] + integrate(
                lambda t: base.speed(t), Interval(nodes[i], nodes[i + 1]), tol)
        self.nodes = nodes
        self.cum = lengths
        self.length = float(lengths[-1])
        self.tol = tol

    def param_at(self, s: float) -> float:
        if s <= 0.0:
            return float(self.nodes[0])
        if s >= self.length:
            return float(self.nodes[-1])
        i = int(np.searchsorted(self.cum, s) - 1)
        i = max(0, min(i, len(self.nodes) - 2))
        s0 = self.cum[i]

        def local(t):
            return s0 + integrate(lambda x: self.base.speed(x),
                                  Interval(self.nodes[i], t), self.tol)

        return invert_monotone(local, s, Interval(self.nodes[i], self.nodes[i + 1]),
                               tol=max(self.tol, 1e-12))

    def __call__(self, s) -> np.ndarray:
        s = float(np.atleast_1d(s)[0])
        return self.base(self.param_at(s))

    def eval_jet(self, point, order: int = 3) -> Jet:
        s = float(np.atleast_1d(point)[0])
        t0 = self.param_at(s)
        j = self.base.jet(t0, 3)
        c1, c2, c3 = j.partial(1), j.partial(2), j.partial(3)
        g = float(np.linalg.norm(c1))
        if g < 1e-12:
            raise VanishingSpeed(f"curve speed vanishes at t={t0}")
        gp = float(c1 @ c2) / g
        gpp = (float(c2 @ c2) + float(c1 @ c3) - gp * gp) / g
        tp = 1.0 / g
        tpp = -gp / g ** 3
        tppp = (3.0 * gp * gp - gpp * g) / g ** 5
        partials = {(0,): j.value.copy()}
        if order >= 1:
            partials[(1,)] = c1 * tp
        if order >= 2:
            partials[(2,)] = c2 * tp ** 2 + c1 * tpp
        if order >= 3:
            partials[(3,)] = c3 * tp ** 3 + 3.0 * c2 * tp * tpp + c1 * tppp
        return Jet(1, order, partials)


def arclength_param(curve: SpaceCurve, tol: float = 1e-12) -> SpaceCurve:
    """Unit-speed reparametrization on [0, L]; result carries `.length`."""
    probes = curve.grid(33)
    speeds = np.array([curve.speed(t) for t in probes])
    if np.min(speeds) < 1e-12:
        raise VanishingSpeed("curve is not regular on its domain")
    v0 = float(speeds[0])
    if np.max(np.abs(speeds - v0)) < 1e-12 * max(1.0, v0) and curve.is_expression:
        # constant speed: exact affine substitution keeps the expression form
        m = curve.map
        vn = m.variables[0]
        repl = ex.add(ex.num(curve.domain.lo), ex.div(ex.var(vn), ex.num(v0)))
        comps = [ex.subs(c, vn, repl) for c in m.components]
        new = ex.MapDef(m.name + "_arclen", (vn,), comps, m.params)
        out = SpaceCurve(new, Interval(0.0, curve.domain.length * v0),
                         curve.name + "_arclen")
        out.length = curve.domain.length * v0
        return out
    rp = ReparamCurve(curve, tol)
    out = SpaceCurve(rp, Interval(0.0, rp.length), curve.name + "_arclen")
    out.length = rp.length
    return out


class _ShiftedMap:
    """u -> base(u + delta) for an opaque curve map."""

    def __init__(self, base_map, delta: float):
        self.base = base_map
        self.delta = float(delta)

    def __call__(self, u):
        u = float(np.atleast_1d(u)[0])
        return self.base(u + self.delta)

    def eval_jet(self, point, order: int = 3) -> Jet:
        u = float(np.atleast_1d(point)[0])
        return eval_jet(self.base, (u + self.delta,), order)


def shift_param(curve: SpaceCurve, delta: float) -> SpaceCurve:
    """Reparametrize by u -> u + delta; the domain shifts by -delta."""
    dom = Interval(curve.domain.lo - delta, curve.domain.hi - delta)
    if curve.is_expression:
        m = curve.map
        vn = m.variables[0]
        repl = ex.add(ex.var(vn), ex.num(float(delta)))
        comps = [ex.subs(c, vn, repl) for c in m.components]
        return SpaceCurve(ex.MapDef(m.name + "_shift", (vn,), comps,
                                    m.params), dom, curve.name + "_shift")
    return SpaceCurve(_ShiftedMap(curve.map, delta), dom,
                      curve.name + "_shift")


def center_param(curve: SpaceCurve) -> SpaceCurve:
    """Shift the parameter so the domain is symmetric about 0."""
    return shift_param(curve, curve.domain.mid)


def curve_length(curve: SpaceCurve, tol: float = 1e-12) -> float:
    return integrate(lambda t: curve.speed(t), curve.domain, tol)


def curve_plane(curve: SpaceCurve, tol: float = 1e-8, samples: int = 128):
    """Osculating plane if the curve is planar (max |tau| < tol), else None."""
    us = curve.grid(samples + 2)[1:-1]
    frames = [frenet(curve, u) for u in us]
    if max(abs(f.tau) for f in frames) >= tol:
        return None
    mid = frames[len(frames) // 2]
    return Plane(mid.point, mid.b)


def curve_symmetry(curve: SpaceCurve, tol: float = 1e-8, samples: int = 512):
    """Isometries exchanging the endpoints of the arc (parameter reversal).

    The reversal u -> -u + c must map the parameter interval onto itself,
    which pins c = lo + hi.  Returns a list of (Isometry, det) with the
    (kappa, tau) profile match verified pointwise on the sampled arc.
    """
    lo, hi = curve.domain.lo, curve.domain.hi
    us = np.linspace(lo, hi, samples)
    frames = [frenet(curve, u) for u in us]
    kap = np.array([f.kappa for f in frames])
    tau = np.array([f.tau for f in frames])
    pts = np.array([f.point for f in frames])
    scale_k = max(1.0, float(np.max(np.abs(kap))))
    scale_t = max(1.0, float(np.max(np.abs(tau))))
    scale_p = max(1.0, float(np.max(np.abs(pts))))
    if np.max(np.abs(kap - kap[::-1])) > tol * scale_k:
        return []
    mid = frenet(curve, 0.5 * (lo + hi))
    found = []
    for tsign, det in ((1.0, 1.0), (-1.0, -1.0)):
        if np.max(np.abs(tau - tsign * tau[::-1])) > tol * scale_t:
            continue
        if det > 0:
            iso = make_rotation180(Line(mid.point, mid.n))
        else:
            iso = make_reflection(Plane(mid.point, mid.e))
        moved = iso(pts)
        if np.max(np.abs(moved - pts[::-1])) <= max(tol, 50 * tol) * scale_p:
            found.append((iso, int(det)))
    return found


class SplineMap:
    """Cubic-spline curve map built from samples, with spline-exact jets."""

    def __init__(self, us, points):
        from scipy.interpolate import CubicSpline
        us = np.asarray(us, dtype=float)
        points = np.asarray(points, dtype=float)
        self.us = us
        self.points = points
        self._sp = CubicSpline(us, points, axis=0)
        self._dsp = [self._sp.derivative(k) for k in (1, 2, 3)]

    def __call__(self, u) -> np.ndarray:
        u = float(np.atleast_1d(u)[0])
        return np.asarray(self._sp(u), dtype=float)

    def eval_jet(self, point, order: int = 3) -> Jet:
        u = float(np.atleast_1d(point)[0])
        partials = {(0,): np.asarray(self._sp(u), dtype=float)}
        for k in range(1, order + 1):
            partials[(k,)] = np.asarray(self._dsp[k - 1](u), dtype=float)
        return Jet(1, order, partials)


def spline_curve(us, points, name: str = "spline_curve") -> SpaceCurve:
    return SpaceCurve(SplineMap(us, points),
                      Interval(float(us[0]), float(us[-1])), name)


# ------------------------------------------------------------------ builtins

def circle(radius: float = 1.0, span: float = 2.0) -> SpaceCurve:
    """Arc of a circle, unit-speed, parameter in [-span, span]."""
    r = float(radius)
    m = ex.MapDef("circle", ("u",),
                  ["r*cos(u/r)", "r*sin(u/r)", "0"], {"r": r})
    return SpaceCurve(m, Interval(-span, span), "circle")


def helix(a: float = 1.0, b: float = 1.0, span: float = 2.0) -> SpaceCurve:
    """Circular helix, unit-speed: curvature a/(a^2+b^2), torsion b/(a^2+b^2)."""
    c = float(np.hypot(a, b))
    m = ex.MapDef("helix", ("u",),
                  ["a*cos(u/c)", "a*sin(u/c)", "b*u/c"], {"a": a, "b": b, "c": c})
    return SpaceCurve(m, Interval(-span, span), "helix")


def segment(span: float = 1.0) -> SpaceCurve:
    m = ex.MapDef("segment", ("u",), ["u", "0", "0"])
    return SpaceCurve(m, Interval(-span, span), "segment")
