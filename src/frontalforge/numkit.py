"""Numerical kernels: truncated Taylor jets and a damped Gauss-Newton solver.

Jets are truncated multivariate Taylor expansions of any order (at most
two variables in practice), taken exactly by forward propagation on the
expression tape in `MapDef.eval_jet`, with a derivative rule of any order
for each function.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

EPS = float(np.finfo(float).eps)

__all__ = [
    "Interval", "Series", "Jet", "NumkitError", "DomainViolation",
    "QuadratureError", "multi_indices", "damped_gauss_newton",
]


class NumkitError(Exception):
    pass


class DomainViolation(NumkitError):
    """Evaluation left the mathematical domain (log of nonpositive, 1/0, ...)."""


class QuadratureError(NumkitError):
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

    def grid(self, n: int) -> np.ndarray:
        return np.linspace(self.lo, self.hi, n)


def multi_indices(nvars: int, order: int):
    """All derivative multi-indices with total degree <= order, by degree,
    then lexicographically."""
    return sorted((a for a in product(range(order + 1), repeat=nvars)
                   if sum(a) <= order), key=lambda a: (sum(a), a))


class _Table:
    """The multi-indices of (nvars, order), their positions and
    factorials, and the coefficient rows (i, j) whose multi-indices add up
    to that of row k, sorted by k, each k's first at starts[k]."""

    _built = {}

    def __init__(self, nvars: int, order: int):
        self.index = multi_indices(nvars, order)
        self.pos = {a: k for k, a in enumerate(self.index)}
        self.fact = np.array([math.prod(map(math.factorial, a))
                              for a in self.index], dtype=float)
        pairs = sorted((self.pos[s], i, j)
                       for i, a in enumerate(self.index)
                       for j, b in enumerate(self.index)
                       if (s := tuple(map(sum, zip(a, b)))) in self.pos)
        k, self.i, self.j = map(np.array, zip(*pairs))
        self.starts = np.searchsorted(k, np.arange(len(self.index)))

    @classmethod
    def of(cls, nvars: int, order: int) -> "_Table":
        """The table of (nvars, order), built on first use."""
        if (nvars, order) not in cls._built:
            cls._built[nvars, order] = cls(nvars, order)
        return cls._built[nvars, order]


class Series:
    """Truncated Taylor polynomials in `nvars` variables up to total
    `order`, at N base points at once.

    The coefficients `c` have shape (K, N): row k belongs to the k-th
    multi-index of `multi_indices`, column i to point i.  Domain checks
    are per point: an operation raises what the first point it fails at
    raises as a one-point series.
    """

    __slots__ = ("nvars", "order", "c")

    def __init__(self, nvars: int, order: int, coeffs):
        self.nvars = nvars
        self.order = order
        self.c = coeffs

    @classmethod
    def constant(cls, value, nvars: int, order: int) -> "Series":
        """The constant `value`: a float, or one per point."""
        value = np.atleast_1d(np.asarray(value, dtype=float))
        c = np.zeros((len(_Table.of(nvars, order).index), len(value)))
        c[0] = value
        return cls(nvars, order, c)

    @classmethod
    def variable(cls, i: int, value, nvars: int, order: int) -> "Series":
        """The i-th variable at `value`: a float, or one per point."""
        s = cls.constant(value, nvars, order)
        if order >= 1:
            unit = tuple(int(j == i) for j in range(nvars))
            s.c[_Table.of(nvars, order).pos[unit]] = 1.0
        return s

    @property
    def const(self) -> np.ndarray:
        return self.c[0]

    def deriv(self, alpha) -> np.ndarray:
        """Partial derivative of the represented function at each point:
        the coefficient times the multi-index factorial."""
        t = _Table.of(self.nvars, self.order)
        k = t.pos[tuple(alpha)]
        return self.c[k] * t.fact[k]

    def _new(self, c) -> "Series":
        return Series(self.nvars, self.order, c)

    def _coerce(self, other) -> "Series":
        if isinstance(other, Series):
            return other
        return self._new(np.zeros_like(self.c)) + other

    def __add__(self, other):
        if isinstance(other, Series):
            return self._new(self.c + other.c)
        c = self.c.copy()
        c[0] += float(other)
        return self._new(c)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.c)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self._new(self.c * float(other))
        t = _Table.of(self.nvars, self.order)
        return self._new(np.add.reduceat(self.c[t.i] * other.c[t.j],
                                         t.starts, axis=0))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Series):
            if float(other) == 0.0:
                raise DomainViolation(
                    "division by a quantity vanishing at the base point")
            return self._new(self.c / float(other))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def compose(self, derivs) -> "Series":
        """Apply a univariate function given its derivatives at each
        point's constant term: derivs[k] is the k-th derivative, a float
        or one value per point, for k = 0 to at least the series order."""
        n = self._new(self.c.copy())
        n.c[0] = 0.0
        c = np.zeros_like(self.c)
        c[0] = derivs[0]
        term, fact = n, 1.0
        for k in range(1, self.order + 1):
            if k > 1:
                term = term * n
            fact *= k
            c += term.c * (np.asarray(derivs[k]) / fact)
        return self._new(c)

    def _reciprocal(self) -> "Series":
        x0 = self.const
        if (x0 == 0.0).any():
            raise DomainViolation("division by a quantity vanishing at the base point")
        d = [1.0 / x0]
        for k in range(1, self.order + 1):
            d.append(-d[-1] * k / x0)
        return self.compose(d)

    def __pow__(self, p):
        if isinstance(p, Series):
            flat = ~p.c[1:].any(axis=0)  # the points where p is constant
            if not flat.any():
                return (p * self.log()).exp()
            if not (flat.all() and (p.const == p.const[0]).all()):
                # exponents of both kinds, or unequal constant ones: each
                # point on its own
                cols = [(self._new(self.c[:, [i]]) ** p._new(p.c[:, [i]])).c
                        for i in range(self.c.shape[1])]
                return self._new(np.hstack(cols))
            p = float(p.const[0])
        if isinstance(p, (int, float)) and float(p).is_integer():
            n = int(p)
            if n == 0:
                return self._coerce(1.0)
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
        if (self.const <= 0.0).any():
            raise DomainViolation("non-integer power of a nonpositive base")
        return (self.log() * float(p)).exp()

    def sqrt(self):
        x0 = self.const
        zero = x0 == 0.0
        bad = (x0 < 0.0) | (zero & self.c[1:].any(axis=0))
        if bad.any():
            if x0[bad.argmax()] < 0.0:
                raise DomainViolation("sqrt of a negative quantity")
            raise DomainViolation("sqrt not differentiable at zero")
        # a point at zero without a nilpotent part has the square root 0
        x0 = np.where(zero, 1.0, x0)
        r = np.sqrt(x0)
        # the k-th derivative is (1/2)(1/2 - 1)...(1/2 - k + 1) r / x0^k
        out = self.compose([r] + [
            math.prod(0.5 - i for i in range(k)) / (x0 ** (k - 1) * r)
            for k in range(1, self.order + 1)])
        out.c[:, zero] = 0.0
        return out

    def exp(self):
        return self.compose([np.exp(self.const)] * (self.order + 1))

    def log(self):
        x0 = self.const
        if (x0 <= 0.0).any():
            raise DomainViolation("log of a nonpositive quantity")
        return self.compose([np.log(x0)] + [
            (-1) ** (k - 1) * math.factorial(k - 1) / x0 ** k
            for k in range(1, self.order + 1)])

    def sin(self):
        s, c = np.sin(self.const), np.cos(self.const)
        return self.compose([s, c, -s, -c] * (self.order // 4 + 1))

    def cos(self):
        s, c = np.sin(self.const), np.cos(self.const)
        return self.compose([c, -s, -c, s] * (self.order // 4 + 1))

    def tan(self):
        # the k-th derivative is P_k(t), P_0 = t, P_k = (1 + t^2) P_(k-1)',
        # each P_k a list of integer coefficients, lowest first
        t = np.tan(self.const)
        d, p = [t], [0, 1]
        for _ in range(self.order):
            p = [i * c for i, c in enumerate(p)][1:]
            y = p[-1]  # Horner's rule
            for c in p[-2::-1]:
                y = y * t + c
            d.append((1.0 + t * t) * y)
            p = [a + b for a, b in zip(p + [0, 0], [0, 0] + p)]
        return self.compose(d)

    def atan(self):
        # the k-th derivative is (-1)^(k-1) (k-1)! Im (x - i)^(-k)
        x0 = self.const
        return self.compose([np.arctan(x0)] + [
            (-1) ** (k - 1) * math.factorial(k - 1) * ((x0 - 1j) ** -k).imag
            for k in range(1, self.order + 1)])


class Jet:
    """Partial derivatives of a map R^k -> R^m up to `order`, at one
    point (each of shape (m,)) or at N points (shape (N, m))."""

    __slots__ = ("nvars", "order", "partials")

    def __init__(self, nvars: int, order: int, partials):
        self.nvars = nvars
        self.order = order
        self.partials = partials  # multi-index -> np.ndarray

    @classmethod
    def from_series(cls, series_list, nvars: int, order: int) -> "Jet":
        """The jet whose m components are `series_list`, at their N
        points: each partial has shape (N, m)."""
        t = _Table.of(nvars, order)
        C = np.stack([s.c for s in series_list], axis=-1)
        return cls(nvars, order, dict(zip(t.index, C * t.fact[:, None, None])))

    @property
    def value(self) -> np.ndarray:
        return self.partials[(0,) * self.nvars]

    def partial(self, *alpha) -> np.ndarray:
        if len(alpha) == 1 and isinstance(alpha[0], tuple):
            alpha = alpha[0]
        return self.partials[tuple(alpha)]


def damped_gauss_newton(fn, target, x0, lo, hi, iters: int, h: float = 1e-6):
    """Damped Gauss-Newton (Levenberg-Marquardt) minimization of
    |fn(x) - target| for every row of x0 at once, clamped to the box
    [lo, hi].  `target` holds one row per row of x0, or one per group of
    k consecutive rows of x0 (k starts of one target).

    `fn` maps a (K, d) array of points to their (K, m) values; each call
    evaluates a set of rows together with their central-difference shifts
    (step h): the start rows first, then at every step the trial points
    of all live rows.  A row takes the Jacobian of its trial point only
    when it accepts the step, so after a rejected step it keeps the
    Jacobian of its unchanged x.  A row keeps its best iterate; its
    damping starts at 1e-8, falls by 0.3 (floor 1e-12) after an improving
    step and grows tenfold otherwise.  After each step a row stops

    - once its damping exceeds 1e6, or after `iters` steps;
    - when its normal equations are singular;
    - when its step (before clamping) no longer changes x in any
      coordinate: more damping would only shorten that step;
    - once the best residual of a row of its group is at most
      4 eps max(1, |target row|_inf): below that floor |fn(x) - target|
      is rounding error, which no step of any start can improve.

    Until then the rows of a group evolve independently, each as in a
    call of its own.  Returns (x, residual, iterations): per row of x0
    the best point, |fn(x) - target| there, and the steps taken; on no
    rows, three empty arrays, without a call of fn.
    """
    x = np.array(x0, dtype=float)
    if not len(x):
        return x, np.zeros(0), np.zeros(0, dtype=int)
    n, d = x.shape
    target = np.asarray(target, dtype=float)
    k = n // len(target)
    floor = 4 * EPS * np.maximum(1.0, np.max(np.abs(target), axis=1))
    target = np.repeat(target, k, axis=0)
    y, J = _values_and_jacobian(fn, x, h)
    r = y - target
    best = np.linalg.norm(r, axis=1)
    lam = np.full(n, 1e-8)
    steps = np.zeros(n, dtype=int)
    live = np.arange(n)
    eye = np.eye(d)
    for _ in range(iters):
        if not live.size:
            break
        xl, Jl = x[live], J[live]
        Jt = Jl.transpose(0, 2, 1)
        A = Jt @ Jl + lam[live, None, None] * eye
        g = -Jt @ r[live][:, :, None]
        step, ok = _solve_rows(A, g)
        steps[live] += 1
        xn = np.clip(xl + step, lo, hi)
        yn, Jn = _values_and_jacobian(fn, xn, h)
        rn_vec = yn - target[live]
        rn = np.linalg.norm(rn_vec, axis=1)
        better = ok & (rn < best[live])
        up = live[better]
        x[up], best[up], r[up] = xn[better], rn[better], rn_vec[better]
        J[up] = Jn[better]
        lam[up] = np.maximum(lam[up] * 0.3, 1e-12)
        lam[live[~better]] *= 10.0
        moved = (xl + step != xl).any(axis=1)
        reached = (best.reshape(-1, k) <= floor[:, None]).any(axis=1)
        g = live // k  # best > floor also stops a row whose residual is NaN
        live = live[ok & moved & (better | (lam[live] <= 1e6))
                    & (best[live] > floor[g]) & ~reached[g]]
    return x, best, steps


def _values_and_jacobian(fn, x, h: float):
    """fn at the rows of the (K, d) array x, (K, m), and its
    central-difference Jacobian there, (K, m, d), from one call of fn on
    the rows and their 2d shifts."""
    k, d = x.shape
    shifted = [x]
    for sign in (1.0, -1.0):
        for i in range(d):
            xs = x.copy()
            xs[:, i] += sign * h
            shifted.append(xs)
    vals = fn(np.concatenate(shifted))
    shifts = vals[k:].reshape(2, d, k, -1)
    J = np.stack([(shifts[0, i] - shifts[1, i]) / (2 * h) for i in range(d)],
                 axis=2)
    return vals[:k], J


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
