"""Space curves: Frenet data and arc-length reparametrization."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import exprlang as ex
from .numkit import (EPS, Interval, NumkitError, QuadratureError,
                     damped_gauss_newton)

__all__ = [
    "SpaceCurve", "FrenetSample", "frenet", "frenet_from_derivatives",
    "arclength_param", "shift_param", "center_param", "circle", "helix",
    "spline_curve", "SplineMap", "CurveError",
    "VanishingSpeed", "VanishingCurvature",
]


class CurveError(Exception):
    pass


class VanishingSpeed(CurveError):
    pass


class VanishingCurvature(CurveError):
    pass


class SpaceCurve:
    """A parametrized curve in R^3 on a closed interval.

    `derivatives` is the one source of its values and derivatives.  An
    expression map is differentiated symbolically on first use, and
    c, c', ..., c^(order) run as one map on the checked grid path
    `MapDef.values`; any other map supplies its own
    `derivatives(us, order)` over a 1-D array of stations.
    """

    def __init__(self, map_, domain: Interval, name: str = "curve"):
        self.map = map_
        self.domain = domain
        self.name = name
        self._jets = {}

    def derivatives(self, u, order: int = 3) -> np.ndarray:
        """c, c', ..., c^(order) at a station or an array of stations,
        shape (order + 1, *shape(u), 3)."""
        u = np.asarray(u, dtype=float)
        us = u.ravel()
        if self.is_expression:
            m, var = self.map, self.map.variables[0]
            if order not in self._jets:
                comps = list(m.components)
                for _ in range(order):
                    memo = {}
                    comps += [ex.diff(c, var, memo) for c in comps[-3:]]
                self._jets[order] = ex.MapDef(f"{m.name}^({order})",
                                              m.variables, comps, m.params)
            out = self._jets[order].values({var: us})
            out = out.reshape(order + 1, 3, -1).transpose(0, 2, 1)
        else:
            out = self.map.derivatives(us, order)
        return out.reshape((order + 1,) + u.shape + (3,))

    def __call__(self, u) -> np.ndarray:
        return self.derivatives(u, 0)[0]

    def speed(self, u):
        return np.linalg.norm(self.derivatives(u, 1)[1], axis=-1)

    def grid(self, n: int) -> np.ndarray:
        return self.domain.grid(n)

    @property
    def is_expression(self) -> bool:
        return isinstance(self.map, ex.MapDef)


@dataclass(frozen=True)
class FrenetSample:
    """Frenet data at u.  For an array of stations every field carries the
    station axis, and the vectors a trailing axis of length 3."""

    u: float
    point: np.ndarray
    e: np.ndarray
    n: np.ndarray
    b: np.ndarray
    kappa: float
    tau: float


def frenet_from_derivatives(u, d) -> FrenetSample:
    """Frenet data from c, c', c'', c''' at u, stacked as
    `SpaceCurve.derivatives` stacks them.  Raises at the first station
    where the speed or the curvature vanishes."""
    c0, c1, c2, c3 = d
    g = np.linalg.norm(c1, axis=-1)
    cr = np.cross(c1, c2)
    ncr = np.linalg.norm(cr, axis=-1)
    slow = np.ravel(g < 1e-12)
    bad = np.flatnonzero(slow | np.ravel(ncr < 1e-12 * g ** 2))
    if bad.size:
        at = np.ravel(u)[bad[0]]
        if slow[bad[0]]:
            raise VanishingSpeed(f"curve speed vanishes at u={at}")
        raise VanishingCurvature(f"curvature vanishes at u={at}")
    kappa = ncr / g ** 3
    b = cr / ncr[..., None]
    e = c1 / g[..., None]
    n = np.cross(b, e)
    tau = np.sum(cr * c3, axis=-1) / ncr ** 2
    return FrenetSample(u, c0, e, n, b, kappa, tau)


def frenet(curve: SpaceCurve, u) -> FrenetSample:
    """Frenet data at a station or an array of stations, from one
    `derivatives` call."""
    return frenet_from_derivatives(u, curve.derivatives(u, 3))


_PANELS = 512        # base panels of the arc-length table
_MAX_DEPTH = 48      # halvings of a base panel
_MAX_SPLITS = 4096   # panels that one refinement level may halve
_ARC_TOL = 1e-12     # Gauss-Legendre rule agreement per base panel
_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)


class ReparamCurve:
    """Arc-length reparametrization of a base curve, with exact chain-rule
    derivatives.

    The arc length S(t) is tabulated over the 512 panels of the base
    domain by the 16-point Gauss-Legendre rule.  A panel where the 8-point
    rule differs by more than 1e-12 is halved with half that tolerance,
    all of a level at once.  All stations are solved in one
    `damped_gauss_newton` call.
    """

    def __init__(self, base: SpaceCurve):
        self.base = base
        edges = base.grid(_PANELS + 1)
        base.speed(edges)  # the Gauss nodes miss the panel ends
        a, b = edges[:-1], edges[1:]
        starts, lengths = [], []
        for depth in range(_MAX_DEPTH + 1):
            q = self._gauss(a, b, _GL16)
            done = ((np.abs(q - self._gauss(a, b, _GL8))
                     <= _ARC_TOL * 0.5 ** depth)
                    | (b - a < 4 * EPS * np.maximum(1.0, abs(a) + abs(b))))
            starts.append(a[done])
            lengths.append(q[done])
            a, b = a[~done], b[~done]
            if not a.size:
                break
            if depth == _MAX_DEPTH or a.size > _MAX_SPLITS:
                raise QuadratureError(
                    f"arc length did not converge to {_ARC_TOL}: {a.size} "
                    f"panels left at depth {depth}, the first at "
                    f"t={a.min()}")
            m = 0.5 * (a + b)
            a, b = np.concatenate([a, m]), np.concatenate([m, b])
        starts = np.concatenate(starts)
        order = np.argsort(starts)
        self.nodes = np.append(starts[order], edges[-1])
        self.cum = np.append(0.0, np.cumsum(np.concatenate(lengths)[order]))
        self.length = float(self.cum[-1])

    def _gauss(self, a, b, rule) -> np.ndarray:
        """The integral of the speed over each [a_i, b_i] by a
        Gauss-Legendre rule (nodes, weights), from one speed call."""
        x, w = rule
        half = 0.5 * (b - a)
        return half * (self.base.speed(0.5 * (a + b)[:, None]
                                       + half[:, None] * x) @ w)

    def params(self, ss) -> np.ndarray:
        """The base parameter t with S(t) = s for each entry of a 1-D array
        of arc lengths: one `damped_gauss_newton` call from the table's
        interpolant, on the base domain."""
        ss = np.asarray(ss, dtype=float)
        lo, hi = self.nodes[0], self.nodes[-1]

        def arclength(X):
            t = np.clip(X[:, 0], lo, hi)
            j = np.searchsorted(self.nodes[:-1], t, side="right") - 1
            return (self.cum[j] + self._gauss(self.nodes[j], t, _GL16))[:, None]

        t, res, _ = damped_gauss_newton(
            arclength, ss[:, None], np.interp(ss, self.cum, self.nodes)[:, None],
            lo, hi, 60)
        bound = np.maximum(_ARC_TOL, 1e3 * EPS * np.maximum(1.0, np.abs(ss)))
        bad = np.flatnonzero(~(res <= bound))
        if bad.size:
            k = bad[0]
            raise NumkitError(f"arc length s={ss[k]} not reached on "
                              f"[{lo}, {hi}]: |S(t) - s| = {res[k]:.3e}")
        return t[:, 0]

    def derivatives(self, ss, order: int) -> np.ndarray:
        t0 = self.params(ss)
        c0, c1, c2, c3 = self.base.derivatives(t0, 3)
        g = np.linalg.norm(c1, axis=-1)
        if np.any(g < 1e-12):
            raise VanishingSpeed(
                f"curve speed vanishes at t={t0[np.argmax(g < 1e-12)]}")
        gp = np.sum(c1 * c2, axis=-1) / g
        gpp = (np.sum(c2 * c2, axis=-1) + np.sum(c1 * c3, axis=-1)
               - gp * gp) / g
        tp = (1.0 / g)[:, None]
        tpp = (-gp / g ** 3)[:, None]
        tppp = ((3.0 * gp * gp - gpp * g) / g ** 5)[:, None]
        return np.stack([c0, c1 * tp, c2 * tp ** 2 + c1 * tpp,
                         c3 * tp ** 3 + 3.0 * c2 * tp * tpp + c1 * tppp]
                        [:order + 1])


def arclength_param(curve: SpaceCurve) -> SpaceCurve:
    """Unit-speed reparametrization on [0, L]; result carries `.length`."""
    speeds = curve.speed(curve.grid(33))
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
    rp = ReparamCurve(curve)
    out = SpaceCurve(rp, Interval(0.0, rp.length), curve.name + "_arclen")
    out.length = rp.length
    return out


class _Reparam:
    """u -> base(s * u + delta) with s = +-1, for a curve whose map is not
    an expression: the k-th derivative is s^k times the base's."""

    def __init__(self, base: SpaceCurve, sign: float, delta: float):
        self.base = base
        self.sign = float(sign)
        self.delta = float(delta)

    def derivatives(self, us, order: int) -> np.ndarray:
        d = self.base.derivatives(self.sign * us + self.delta, order)
        return d * (self.sign ** np.arange(order + 1))[:, None, None]


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
    return SpaceCurve(_Reparam(curve, 1.0, delta), dom, curve.name + "_shift")


def center_param(curve: SpaceCurve) -> SpaceCurve:
    """Shift the parameter so the domain is symmetric about 0."""
    return shift_param(curve, curve.domain.mid)


class SplineMap:
    """Cubic-spline curve map built from samples, with spline-exact
    derivatives."""

    def __init__(self, us, points):
        self._sp = CubicSpline(np.asarray(us, dtype=float),
                               np.asarray(points, dtype=float), axis=0)

    def derivatives(self, us, order: int) -> np.ndarray:
        return np.stack([self._sp(us, k) for k in range(order + 1)])


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

