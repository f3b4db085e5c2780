"""Numerical kernels: truncated Taylor jets, adaptive quadrature, monotone inversion.

Jets are truncated multivariate Taylor expansions (order <= 3, at most two
variables in practice), taken exactly by forward propagation on the
expression tape; a map without its own jet has none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.optimize import brentq

EPS = float(np.finfo(float).eps)

__all__ = [
    "Interval", "Series", "Jet", "eval_jet", "integrate", "invert_monotone",
    "NumkitError", "DomainViolation", "NonFiniteValue", "QuadratureError",
    "BracketError", "multi_indices", "damped_gauss_newton",
]


class NumkitError(Exception):
    pass


class DomainViolation(NumkitError):
    """Evaluation left the mathematical domain (log of nonpositive, 1/0, ...)."""


class NonFiniteValue(NumkitError):
    pass


class QuadratureError(NumkitError):
    def __init__(self, msg, best=None):
        super().__init__(msg)
        self.best = best


class BracketError(NumkitError):
    pass


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x, margin: float = 0.0) -> bool:
        return self.lo - margin <= x <= self.hi + margin

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n)


def multi_indices(nvars: int, order: int):
    """All derivative multi-indices with total degree <= order."""
    out = []
    for alpha in product(range(order + 1), repeat=nvars):
        if sum(alpha) <= order:
            out.append(alpha)
    out.sort(key=lambda a: (sum(a), a))
    return out


def _factorial_alpha(alpha) -> float:
    r = 1.0
    for k in alpha:
        r *= math.factorial(k)
    return r


class Series:
    """Truncated Taylor polynomial in `nvars` variables up to total `order`.

    Coefficients are stored against multi-indices; the derivative of the
    underlying function is coefficient times the multi-index factorial.
    """

    __slots__ = ("nvars", "order", "c")

    def __init__(self, nvars: int, order: int, coeffs=None):
        self.nvars = nvars
        self.order = order
        self.c = dict(coeffs) if coeffs else {}

    @classmethod
    def constant(cls, value: float, nvars: int, order: int) -> "Series":
        s = cls(nvars, order)
        if value != 0.0:
            s.c[(0,) * nvars] = float(value)
        return s

    @classmethod
    def variable(cls, i: int, value: float, nvars: int, order: int) -> "Series":
        s = cls.constant(value, nvars, order)
        if order >= 1:
            idx = tuple(1 if j == i else 0 for j in range(nvars))
            s.c[idx] = s.c.get(idx, 0.0) + 1.0
        return s

    @property
    def const(self) -> float:
        return self.c.get((0,) * self.nvars, 0.0)

    def coeff(self, alpha) -> float:
        return self.c.get(tuple(alpha), 0.0)

    def deriv(self, alpha) -> float:
        """Partial derivative of the represented function at the base point."""
        return self.coeff(alpha) * _factorial_alpha(alpha)

    def _like(self) -> "Series":
        return Series(self.nvars, self.order)

    def __add__(self, other):
        other = self._coerce(other)
        out = Series(self.nvars, self.order, self.c)
        for k, v in other.c.items():
            out.c[k] = out.c.get(k, 0.0) + v
        return out

    __radd__ = __add__

    def __neg__(self):
        return Series(self.nvars, self.order, {k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        return Series.constant(float(other), self.nvars, self.order)

    def __mul__(self, other):
        if not isinstance(other, Series):
            f = float(other)
            return Series(self.nvars, self.order,
                          {k: v * f for k, v in self.c.items()})
        out = self._like()
        for ka, va in self.c.items():
            for kb, vb in other.c.items():
                k = tuple(a + b for a, b in zip(ka, kb))
                if sum(k) <= self.order:
                    out.c[k] = out.c.get(k, 0.0) + va * vb
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            return self * (1.0 / float(other))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def _nilpotent(self) -> "Series":
        out = self._like()
        zero = (0,) * self.nvars
        for k, v in self.c.items():
            if k != zero:
                out.c[k] = v
        return out

    def compose(self, derivs) -> "Series":
        """Apply a univariate function given its derivative list at self.const."""
        n = self._nilpotent()
        out = Series.constant(derivs[0], self.nvars, self.order)
        term = Series.constant(1.0, self.nvars, self.order)
        fact = 1.0
        for k in range(1, min(len(derivs), self.order + 1)):
            term = term * n
            fact *= k
            if derivs[k] != 0.0:
                out = out + term * (derivs[k] / fact)
        return out

    def _reciprocal(self) -> "Series":
        x0 = self.const
        if x0 == 0.0:
            raise DomainViolation("division by a quantity vanishing at the base point")
        d = [1.0 / x0]
        for k in range(1, self.order + 1):
            d.append(-d[-1] * k / x0)
        return self.compose(d)

    def __pow__(self, p):
        if isinstance(p, Series):
            if not p._nilpotent().c:
                p = p.const
            else:
                return (p * self.log()).exp()
        if isinstance(p, (int, float)) and float(p).is_integer():
            n = int(p)
            if n == 0:
                return Series.constant(1.0, self.nvars, self.order)
            base = self if n > 0 else self._reciprocal()
            n = abs(n)
            # repeated squaring, O(log n) truncated products; squares and
            # cubes come out as the product chain u*u and (u*u)*u
            out = None
            while True:
                if n & 1:
                    out = base if out is None else base * out
                n >>= 1
                if not n:
                    return out
                base = base * base
        x0 = self.const
        if x0 <= 0.0:
            raise DomainViolation("non-integer power of a nonpositive base")
        return (self.log() * float(p)).exp()

    def sqrt(self):
        x0 = self.const
        if x0 < 0.0:
            raise DomainViolation("sqrt of a negative quantity")
        if x0 == 0.0:
            if self._nilpotent().c:
                raise DomainViolation("sqrt not differentiable at zero")
            return Series.constant(0.0, self.nvars, self.order)
        r = math.sqrt(x0)
        d = [r, 0.5 / r, -0.25 / (x0 * r), 0.375 / (x0 * x0 * r)]
        return self.compose(d[: self.order + 1])

    def exp(self):
        e = math.exp(self.const)
        return self.compose([e] * (self.order + 1))

    def log(self):
        x0 = self.const
        if x0 <= 0.0:
            raise DomainViolation("log of a nonpositive quantity")
        d = [math.log(x0), 1.0 / x0, -1.0 / x0 ** 2, 2.0 / x0 ** 3]
        return self.compose(d[: self.order + 1])

    def sin(self):
        x0 = self.const
        s, c = math.sin(x0), math.cos(x0)
        return self.compose([s, c, -s, -c][: self.order + 1])

    def cos(self):
        x0 = self.const
        s, c = math.sin(x0), math.cos(x0)
        return self.compose([c, -s, -c, s][: self.order + 1])

    def tan(self):
        t = math.tan(self.const)
        u = 1.0 + t * t
        return self.compose([t, u, 2 * t * u, u * (2 + 6 * t * t)][: self.order + 1])

    def atan(self):
        x0 = self.const
        q = 1.0 + x0 * x0
        d = [math.atan(x0), 1.0 / q, -2.0 * x0 / q ** 2, (6 * x0 * x0 - 2) / q ** 3]
        return self.compose(d[: self.order + 1])


class Jet:
    """Partial derivatives of a vector-valued map at a point, up to `order`."""

    __slots__ = ("nvars", "order", "partials")

    def __init__(self, nvars: int, order: int, partials):
        self.nvars = nvars
        self.order = order
        self.partials = partials  # multi-index -> np.ndarray

    @classmethod
    def from_series(cls, series_list, nvars: int, order: int) -> "Jet":
        partials = {}
        for alpha in multi_indices(nvars, order):
            partials[alpha] = np.array([s.deriv(alpha) for s in series_list])
        return cls(nvars, order, partials)

    @property
    def value(self) -> np.ndarray:
        return self.partials[(0,) * self.nvars]

    def partial(self, *alpha) -> np.ndarray:
        if len(alpha) == 1 and isinstance(alpha[0], tuple):
            alpha = alpha[0]
        return self.partials[tuple(alpha)]

    def directional2(self, d) -> np.ndarray:
        """Second derivative along a domain direction d (for 2-variable maps)."""
        d = np.asarray(d, dtype=float)
        return (self.partial(2, 0) * d[0] ** 2
                + 2.0 * self.partial(1, 1) * d[0] * d[1]
                + self.partial(0, 2) * d[1] ** 2)


def eval_jet(map_, point, order: int = 3) -> Jet:
    """Exact jet of a map at a point, from the map's own ``eval_jet``
    (truncated Taylor arithmetic on the expression tape).  A map without
    one has no jet: `NumkitError` names its type."""
    if order < 0 or order > 3:
        raise ValueError("jet order must be in 0..3")
    if not hasattr(map_, "eval_jet"):
        raise NumkitError(
            f"no exact jet for a map of type {type(map_).__name__}")
    return map_.eval_jet(point, order)


def integrate(f, interval: Interval, tol: float = 1e-10, max_depth: int = 48) -> float:
    """Adaptive Simpson quadrature with absolute tolerance `tol`."""
    a, b = interval.lo, interval.hi
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    for v in (fa, fb, fm):
        if not math.isfinite(v):
            raise NonFiniteValue("integrand returned a non-finite value")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    total, ok = _simpson(f, a, b, fa, fm, fb, whole, tol, max_depth)
    if not ok:
        raise QuadratureError(
            f"quadrature did not converge to {tol} within depth {max_depth}",
            best=total)
    return total


def _simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise NonFiniteValue("integrand returned a non-finite value")
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or (b - a) < EPS * 4 * max(1.0, abs(a) + abs(b)):
        return left + right + err / 15.0, True
    if depth <= 0:
        return left + right + err / 15.0, False
    lv, lok = _simpson(f, a, m, fa, flm, fm, left, tol / 2, depth - 1)
    rv, rok = _simpson(f, m, b, fm, frm, fb, right, tol / 2, depth - 1)
    return lv + rv, lok and rok


def invert_monotone(g, target: float, bracket: Interval, tol: float = 1e-12) -> float:
    """Solve g(x) = target for monotone g on the bracket."""
    glo, ghi = g(bracket.lo) - target, g(bracket.hi) - target
    if glo == 0.0:
        return bracket.lo
    if ghi == 0.0:
        return bracket.hi
    if glo * ghi > 0.0:
        raise BracketError(
            f"bracket [{bracket.lo}, {bracket.hi}] does not straddle the target")
    x = brentq(lambda t: g(t) - target, bracket.lo, bracket.hi,
               xtol=1e-15, rtol=4 * EPS, maxiter=200)
    if abs(g(x) - target) > max(tol, 1e3 * EPS * max(1.0, abs(target))):
        raise NumkitError("monotone inversion failed to meet the tolerance")
    return x


def damped_gauss_newton(fn, target, x0, lo, hi, iters: int, h: float = 1e-6):
    """Damped Gauss-Newton (Levenberg-Marquardt) minimization of
    |fn(x) - target| for every row of x0 at once, clamped to the box
    [lo, hi].

    `fn` maps a (K, d) array of points to their (K, m) values; each call
    evaluates all live rows, or all their central-difference shifts (step
    h), together.  A row keeps its best iterate; its damping starts at
    1e-8, falls by 0.3 (floor 1e-12) after an improving step and grows
    tenfold otherwise.  The row stops once its damping exceeds 1e6, after
    `iters` steps, when its normal equations are singular, or when its
    step (before clamping) no longer changes x in any coordinate: more
    damping would only shorten that step.  Returns
    (x, residual, iterations): per row the best point, |fn(x) - target|
    there, and the steps taken.
    """
    x = np.array(x0, dtype=float)
    target = np.asarray(target, dtype=float)
    n, d = x.shape
    r = fn(x) - target
    best = np.linalg.norm(r, axis=1)
    lam = np.full(n, 1e-8)
    steps = np.zeros(n, dtype=int)
    live = np.arange(n)
    eye = np.eye(d)
    for _ in range(iters):
        if not live.size:
            break
        xl = x[live]
        shifted = []
        for sign in (1.0, -1.0):
            for i in range(d):
                xs = xl.copy()
                xs[:, i] += sign * h
                shifted.append(xs)
        vals = fn(np.concatenate(shifted)).reshape(2, d, len(live), -1)
        J = np.stack([(vals[0, i] - vals[1, i]) / (2 * h) for i in range(d)],
                     axis=2)
        Jt = J.transpose(0, 2, 1)
        A = Jt @ J + lam[live, None, None] * eye
        g = -Jt @ r[live][:, :, None]
        step, ok = _solve_rows(A, g)
        steps[live] += 1
        xn = np.clip(xl + step, lo, hi)
        rn_vec = fn(xn) - target[live]
        rn = np.linalg.norm(rn_vec, axis=1)
        better = ok & (rn < best[live])
        up = live[better]
        x[up], best[up], r[up] = xn[better], rn[better], rn_vec[better]
        lam[up] = np.maximum(lam[up] * 0.3, 1e-12)
        lam[live[~better]] *= 10.0
        moved = (xl + step != xl).any(axis=1)
        live = live[ok & moved & (better | (lam[live] <= 1e6))]
    return x, best, steps


def _solve_rows(A, g):
    """Solutions of the stacked systems A x = g, and which rows had one."""
    try:
        return np.linalg.solve(A, g)[:, :, 0], np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.zeros(g.shape[:2])
        ok = np.zeros(len(A), dtype=bool)
        for k in range(len(A)):
            try:
                out[k] = np.linalg.solve(A[k], g[k])[:, 0]
                ok[k] = True
            except np.linalg.LinAlgError:
                pass
        return out, ok
