"""Closed forms and checks that the benchmark compares program outputs with.

Nothing here imports frontalforge: every reference value is computed in
numpy from formulas written out below, so a fault in the program cannot
hide in its own reference.

- Frenet data of the unit-speed circle and helix.
- The edge normal form surface c + v^2 a D + v^3 b Dp.
- A table of catalog symmetries: for each germ, the isometry T, the domain
  map psi with T o f = f o psi, and the sign e with
  det(Q) Q nu = e nu o psi, together with f and nu in numpy.
- Connecting maps psi of the plane pairs f1 = f2 o psi and their sign.

Each check raises CheckFailure with the worst deviation when it fails.
"""
from __future__ import annotations

import math

import numpy as np


class CheckFailure(Exception):
    pass


def check_close(what: str, got, want, tol: float) -> float:
    """Largest |got - want|; fails unless it is below tol."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailure(f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err < tol:
        raise CheckFailure(f"{what}: deviation {err:.3e} is not below {tol:.0e}")
    return err


def check_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailure(f"{what}: {got!r} != {want!r}")


# --------------------------------------------------------------- space curves

class Circle:
    """c(u) = (r cos(u/r), r sin(u/r), 0), unit speed."""

    def __init__(self, r: float):
        self.r = float(r)

    def point(self, u):
        u = np.asarray(u, float)
        r = self.r
        return np.stack([r * np.cos(u / r), r * np.sin(u / r),
                         np.zeros_like(u)], axis=-1)

    def frame(self, u):
        """(e, n, b) stacked on the last axis but one: shape (..., 3, 3)."""
        s, c = np.sin(np.asarray(u, float) / self.r), np.cos(np.asarray(u, float) / self.r)
        z, one = np.zeros_like(s), np.ones_like(s)
        e = np.stack([-s, c, z], axis=-1)
        n = np.stack([-c, -s, z], axis=-1)
        b = np.stack([z, z, one], axis=-1)
        return np.stack([e, n, b], axis=-2)

    def kappa(self, u):
        return np.full(np.shape(u), 1.0 / self.r)

    def tau(self, u):
        return np.zeros(np.shape(u))


class Helix:
    """c(u) = (a cos(u/c), a sin(u/c), b u/c), c = sqrt(a^2 + b^2)."""

    def __init__(self, a: float, b: float):
        self.a, self.b = float(a), float(b)
        self.c = math.hypot(self.a, self.b)

    def point(self, u):
        u = np.asarray(u, float)
        a, b, c = self.a, self.b, self.c
        return np.stack([a * np.cos(u / c), a * np.sin(u / c), b * u / c],
                        axis=-1)

    def frame(self, u):
        a, b, c = self.a, self.b, self.c
        s, co = np.sin(np.asarray(u, float) / c), np.cos(np.asarray(u, float) / c)
        z, one = np.zeros_like(s), np.ones_like(s)
        e = np.stack([-a / c * s, a / c * co, b / c * one], axis=-1)
        n = np.stack([-co, -s, z], axis=-1)
        bn = np.stack([b / c * s, -b / c * co, a / c * one], axis=-1)
        return np.stack([e, n, bn], axis=-2)

    def kappa(self, u):
        return np.full(np.shape(u), self.a / self.c ** 2)

    def tau(self, u):
        return np.full(np.shape(u), self.b / self.c ** 2)


# ---------------------------------------------------------- edge normal form

class Poly2:
    """Polynomial sum_k coef[k] u^i v^j over exponent pairs (i, j)."""

    def __init__(self, terms):
        self.terms = [(float(c), int(i), int(j)) for c, i, j in terms]

    def __call__(self, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        out = np.zeros(np.broadcast(u, v).shape)
        for c, i, j in self.terms:
            out = out + c * u ** i * v ** j
        return out

    def source(self) -> str:
        """The same polynomial in the program's expression syntax."""
        parts = []
        for c, i, j in self.terms:
            factors = [f"({c!r})"]
            factors += [f"u^{i}"] * bool(i) + [f"v^{j}"] * bool(j)
            parts.append("*".join(factors))
        return " + ".join(parts) or "0"

    def du(self) -> "Poly2":
        return Poly2([(c * i, i - 1, j) for c, i, j in self.terms if i])

    def dv(self) -> "Poly2":
        return Poly2([(c * j, i, j - 1) for c, i, j in self.terms if j])


class EdgeSurface:
    """f(u, v) = c(u) + v^2 a(u, v) D(u) + v^3 b(u, v) Dp(u) with
    D = cos(theta) n - sin(theta) b and Dp = sin(theta) n + cos(theta) b,
    theta(u) = th0 + th1 sin(u)."""

    def __init__(self, crease, th0: float, th1: float, a: Poly2, b: Poly2):
        self.crease = crease
        self.th0, self.th1 = float(th0), float(th1)
        self.a, self.b = a, b

    def theta(self, u):
        return self.th0 + self.th1 * np.sin(np.asarray(u, float))

    def theta_prime(self, u):
        return self.th1 * np.cos(np.asarray(u, float))

    def __call__(self, u, v):
        """Surface on broadcast (u, v); shape (..., 3)."""
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        fr = self.crease.frame(u)
        n, bn = fr[..., 1, :], fr[..., 2, :]
        th = self.theta(u)[..., None]
        D = np.cos(th) * n - np.sin(th) * bn
        Dp = np.sin(th) * n + np.cos(th) * bn
        vv = v[..., None]
        return (self.crease.point(u) + vv ** 2 * self.a(u, v)[..., None] * D
                + vv ** 3 * self.b(u, v)[..., None] * Dp)

    def beta(self, u):
        """Second angle of the strip with alpha = theta, in (0, pi)."""
        k, t = self.crease.kappa(u), self.crease.tau(u)
        return np.arctan2(1.0, (self.theta_prime(u) + t)
                          / (k * np.sin(self.theta(u))))


def cotangent_residual(beta, alpha, alpha_prime, kappa, tau):
    """cos(beta) kappa sin(alpha) - sin(beta) (alpha' + tau), zero for the
    second angle of a developable strip."""
    return (np.cos(beta) * kappa * np.sin(alpha)
            - np.sin(beta) * (alpha_prime + tau))


# ------------------------------------------------------------- catalog germs

def _stack(*cols):
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def cuspidal_edge_f(u, v):
    return _stack(v ** 2, v ** 3, u)


def cuspidal_edge_nu(u, v):
    return _stack(-3 * v, 2.0 + 0 * u, 0.0 * v)


def swallowtail_f(u, v):
    return _stack(3 * v ** 4 + u * v ** 2, 4 * v ** 3 + 2 * u * v, u)


def swallowtail_nu(u, v):
    return _stack(1.0 + 0 * u, -v + 0 * u, v ** 2 + 0 * u)


def cross_cap_cusp_f(u, v):
    return _stack(v ** 2, u * v ** 3, u)


def cross_cap_cusp_nu(u, v):
    return _stack(-3 * u * v, 2.0 + 0 * u, -2 * v ** 3 + 0 * u)


def ccr_f(u, v):
    return _stack(u, v ** 2, u ** 2 + u * v ** 3)


def ccr_nu(u, v):
    return _stack(-4 * u - 2 * v ** 3, -3 * u * v, 2.0 + 0 * u)


def sw_example_maps(b: float, c: float):
    def f(u, v):
        return _stack(u + v ** 2 / 2 - b ** 2 * u * v ** 2 / 2 - b ** 2 * v ** 4 / 8,
                      b * v ** 3 / 3 + b * u * v, c * u ** 2 / 2 + 0 * v)

    def nu(u, v):
        return _stack(-b * c * (v ** 2 + u),
                      c * (v - b ** 2 * u * v - b ** 2 * v ** 3 / 2),
                      b * (1 + b ** 2 * v ** 2 / 2) + 0 * u)

    return f, nu


def ms_edge_maps(a0: Poly2, b0: Poly2, b2: Poly2, b3: Poly2):
    """(u, a0 + v^2, b0 u^2 + b2 u v^2 + b3 v^3) and f_u x (f_v / v)."""

    def f(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        return _stack(u, a0(u, v) + v ** 2,
                      b0(u, v) * u ** 2 + b2(u, v) * u * v ** 2 + b3(u, v) * v ** 3)

    def nu(u, v):
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        A = a0.du()(u, v)
        B = (b0.du()(u, v) * u ** 2 + 2 * b0(u, v) * u
             + (b2.du()(u, v) * u + b2(u, v)) * v ** 2 + b3.du()(u, v) * v ** 3)
        G = 2 * b2(u, v) * u + b3.dv()(u, v) * v ** 2 + 3 * b3(u, v) * v
        return _stack(A * G - 2 * B, -G, 2.0 + 0 * u)

    return f, nu


def _diag(*d):
    return np.diag(np.asarray(d, dtype=float))


def _psi_u_negv(u, v):
    return u, -v


def _psi_negu_v(u, v):
    return -u, v


def _psi_negu_negv(u, v):
    return -u, -v


class Symmetry:
    """T o f = f o psi and det(Q) Q nu = e nu o psi, T = Q (fixes 0)."""

    def __init__(self, label: str, Q, psi, e: int):
        self.label = label
        self.Q = np.asarray(Q, dtype=float)
        self.psi = psi
        self.e = int(e)


#: label sets and matrices derived by hand from the formulas above; the
#: catalog germs are all based at the origin with f(0) = 0
EDGE_SYMMETRIES = (
    Symmetry("i", _diag(1, -1, 1), _psi_u_negv, 1),
    Symmetry("ii", _diag(1, 1, -1), _psi_negu_v, -1),
    Symmetry("iv", _diag(1, -1, -1), _psi_negu_negv, -1),
)
CROSS_CAP_CUSP_SYMMETRIES = (
    Symmetry("i", _diag(1, -1, 1), _psi_u_negv, 1),
    Symmetry("ii", _diag(1, 1, -1), _psi_negu_negv, -1),
    Symmetry("iv", _diag(1, -1, -1), _psi_negu_v, -1),
)
SWALLOWTAIL_SYMMETRIES = (Symmetry("iii", _diag(1, -1, 1), _psi_u_negv, -1),)
CCR_SYMMETRIES = (Symmetry("ii", _diag(-1, 1, 1), _psi_negu_negv, -1),)
MS_EDGE_SYMMETRIES = (Symmetry("ii", _diag(-1, 1, 1), _psi_negu_v, -1),)

CATALOG_TABLE = {
    "cuspidal_edge": (cuspidal_edge_f, cuspidal_edge_nu, EDGE_SYMMETRIES),
    "swallowtail": (swallowtail_f, swallowtail_nu, SWALLOWTAIL_SYMMETRIES),
    "cuspidal_cross_cap": (cross_cap_cusp_f, cross_cap_cusp_nu,
                           CROSS_CAP_CUSP_SYMMETRIES),
    "ccr_example": (ccr_f, ccr_nu, CCR_SYMMETRIES),
}


def symmetry_entry(name: str, params: dict | None = None):
    """(f, nu, symmetries) for a catalog germ; sw_example takes b, c and
    ms_edge takes Poly2 coefficients a0, b0, b2, b3."""
    if name in CATALOG_TABLE:
        return CATALOG_TABLE[name]
    if name == "sw_example":
        f, nu = sw_example_maps(params["b"], params["c"])
        return f, nu, SWALLOWTAIL_SYMMETRIES
    if name == "ms_edge":
        f, nu = ms_edge_maps(params["a0"], params["b0"], params["b2"],
                             params["b3"])
        return f, nu, MS_EDGE_SYMMETRIES
    raise KeyError(name)


def closed_under_composition(Qs, tol: float = 1e-8) -> bool:
    """The matrices together with the identity form a group."""
    group = [np.eye(3)] + [np.asarray(Q, float) for Q in Qs]
    return all(any(np.max(np.abs(A @ B - C)) < tol for C in group)
               for A in group for B in group)


# ----------------------------------------------------------------- plane pairs

class PlanePair:
    """f2 = (t^2, t^m) on [-h2, h2] and f1 = f2 o psi on [-1, 1].

    kind 'scale': psi = c t; 'cubic': psi = t + c t^3; 'power': psi = t^k
    with k odd.  The continuous normal of f2 is (-m t^(m-2), 2)/|.|, so
    nu1 = s nu2 o psi with s the sign of psi' psi at the right end of the
    domain, where the program anchors both normals.
    """

    def __init__(self, m: int, kind: str, c: float = 0.0, k: int = 1):
        self.m, self.kind, self.c, self.k = int(m), kind, float(c), int(k)
        self.h1 = 1.0
        self.h2 = max(1.0, 1.05 * abs(float(self.psi(self.h1))))

    def psi(self, t):
        t = np.asarray(t, float)
        if self.kind == "scale":
            return self.c * t
        if self.kind == "cubic":
            return t + self.c * t ** 3
        return t ** self.k

    def dpsi(self, t):
        t = np.asarray(t, float)
        if self.kind == "scale":
            return self.c + 0 * t
        if self.kind == "cubic":
            return 1 + 3 * self.c * t ** 2
        return self.k * t ** (self.k - 1)

    def psi_source(self) -> str:
        if self.kind == "scale":
            return f"({self.c!r}*t)"
        if self.kind == "cubic":
            return f"(t+{self.c!r}*t^3)"
        return f"(t^{self.k})"

    def f1_sources(self):
        p = self.psi_source()
        return (f"{p}^2", f"{p}^{self.m}")

    def f2_sources(self):
        return ("t^2", f"t^{self.m}")

    def f2(self, t):
        t = np.asarray(t, float)
        return np.stack([t ** 2, t ** self.m], axis=-1)

    def f1(self, t):
        return self.f2(self.psi(t))

    @property
    def e(self) -> int:
        return 1 if float(self.dpsi(self.h1) * self.psi(self.h1)) > 0 else -1
