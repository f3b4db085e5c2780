"""Developable strips, the IST construction, strip isomers, curved foldings.

A developable strip is a ruled surface F(u, v) = c(u) + v xi(u) along an
arc-length crease c, with the ruling direction xi determined by two angular
functions: the first angle alpha prescribes the tangent-plane tilt and the
second angle beta in (0, pi) solves cot(beta) = (alpha' + tau)/(kappa
sin(alpha)).  The IST map turns an edge normal form into such a strip by
taking alpha := theta.  A curved folding glues a strip to its dual
(alpha -> -alpha) along a split rule.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curve import SpaceCurve, frenet
from .isomer import (NotAdmissible, _admissible, _station_data, dual, inverse,
                     inverse_dual)
from .normalform import EdgeNormalForm, ScalarProfile
from .numkit import Interval

__all__ = [
    "DevStrip", "CurvedFolding", "MeshGrid", "second_angle", "ist",
    "evaluate_strip", "gaussian_curvature", "strip_isomers",
    "curved_folding", "strip_mesh", "folding_mesh", "write_obj",
    "write_profile_csv", "DevfoldError", "AngleRangeError",
]


class DevfoldError(Exception):
    pass


class AngleRangeError(DevfoldError):
    pass


def second_angle(alpha, alpha_prime, kappa, tau):
    """Second angular function beta in (0, pi) with
    cot(beta) = (alpha' + tau) / (kappa * sin(alpha)), elementwise."""
    if np.any(kappa <= 0):
        raise DevfoldError(
            f"second_angle needs kappa > 0, got {np.min(kappa)}")
    s = np.sin(alpha)
    if np.any(s == 0.0):
        raise AngleRangeError("second_angle undefined at sin(alpha) = 0")
    cot = (alpha_prime + tau) / (kappa * s)
    # atan2(1, cot) is the inverse cotangent mapped onto (0, pi)
    return np.arctan2(1.0, cot)


@dataclass
class DevStrip:
    """Ruled strip F(u, v) = c(u) + v * xi(u) in normal form.

    crease is arc-length parametrized; alpha is the first angular function
    with 0 < |alpha| < pi/2 at every station; beta is derived, not stored.
    """

    crease: SpaceCurve
    alpha: ScalarProfile
    halfwidth: float = 0.15
    interval: Interval | None = None
    source_nf: EdgeNormalForm | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.interval is None:
            self.interval = self.crease.domain

    def stations(self, n: int = 129) -> np.ndarray:
        return self.interval.grid(n)

    def frame(self, u):
        return frenet(self.crease, u)

    def beta(self, u):
        return self.profile(u)["beta"]

    def __call__(self, u, v) -> np.ndarray:
        return evaluate_strip(self, u, v)

    def profile(self, us) -> dict:
        """u, alpha, beta, kappa and tau at the stations us."""
        fr = self.frame(us)
        alpha = self.alpha(us)
        return {"u": us, "alpha": alpha,
                "beta": second_angle(alpha, self.alpha.deriv(us),
                                     fr.kappa, fr.tau),
                "kappa": fr.kappa, "tau": fr.tau}


def _ruling(strip: DevStrip, fr, u) -> np.ndarray:
    """Unit ruling direction xi at the stations u, given their Frenet data
    fr, shape (*shape(u), 3); it has a positive principal-normal component
    under the strip invariants."""
    a = strip.alpha(u)
    b = second_angle(a, strip.alpha.deriv(u), fr.kappa, fr.tau)
    a, b = np.asarray(a)[..., None], np.asarray(b)[..., None]
    return np.cos(b) * fr.e + np.sin(b) * (np.cos(a) * fr.n
                                           + np.sin(a) * fr.b)


def evaluate_strip(strip: DevStrip, u, v) -> np.ndarray:
    """F(u, v) over broadcastable u and v, shape (*shape, 3); the crease
    frame is taken on the stations u only."""
    v = np.asarray(v, dtype=float)
    if np.any(np.abs(v) > strip.halfwidth + 1e-12):
        raise DevfoldError(f"|v| = {np.max(np.abs(v))} exceeds the strip "
                           f"halfwidth {strip.halfwidth}")
    fr = strip.frame(u)
    return fr.point + v[..., None] * _ruling(strip, fr, u)


def _check_alpha_range(us, th):
    bad = np.flatnonzero((np.abs(th) <= 1e-10)
                         | (np.abs(th) >= np.pi / 2 - 1e-10))
    if bad.size:
        raise AngleRangeError(
            f"cuspidal angle {th[bad[0]]} at u={us[bad[0]]} leaves (0, pi/2) "
            "in absolute value; the strip construction is undefined")


def ist(nf: EdgeNormalForm, halfwidth: float | None = None,
        n_check: int = 129) -> DevStrip:
    """Strip of the edge: alpha := theta along the same crease.

    Requires a strictly admissible edge with 0 < |theta| < pi/2 at every
    station (both kappa_s and kappa_nu nonvanishing).
    """
    # one Frenet call feeds the admissibility, angle and focal checks
    us, kap, _, th = _station_data(nf, n_check)
    _, strict = _admissible(kap, th)
    if not strict:
        raise NotAdmissible(
            "strip construction requires a strictly admissible edge")
    _check_alpha_range(us, th)
    hw = nf.halfwidth if halfwidth is None else float(halfwidth)
    hw = _truncate_to_focal(kap, hw)
    return DevStrip(nf.crease, nf.theta, hw, nf.interval, source_nf=nf)


def _truncate_to_focal(kap, hw: float) -> float:
    import warnings
    rmin = float(np.min(1.0 / kap))
    if hw > 0.5 * rmin:
        warnings.warn(
            f"halfwidth {hw} is close to the focal distance {rmin}; "
            f"truncating to {0.5 * rmin}", stacklevel=3)
        hw = 0.5 * rmin
    return hw


def gaussian_curvature(strip, u, v):
    """Gaussian curvature from a numeric second fundamental form, on a
    9-point stencil of step 1e-4 max(1, |u|, |v|).

    On a DevStrip, u and v may be broadcastable arrays, and one Frenet call
    gives the 3 stations of every 9-point stencil.  Any other callable
    (u, v) -> 3-point is evaluated point by point at float u and v (used
    for the negative controls: cylinders are flat, spheres are not).
    """
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    h = 1e-4 * np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))[..., None]
    steps = np.array([-1.0, 0.0, 1.0])
    uu, vv = u[..., None] + steps * h, v[..., None] + steps * h
    if isinstance(strip, DevStrip):
        # unchecked evaluation: the stencil may step slightly past the width
        fr = strip.frame(uu)
        P = (fr.point[..., None, :]
             + vv[..., None, :, None] * _ruling(strip, fr, uu)[..., None, :])
    else:
        P = np.array([[np.asarray(strip(a, b), float) for b in vv]
                      for a in uu])

    def p(du, dv):
        return P[..., du + 1, dv + 1, :]

    def dot(a, b):
        return np.sum(a * b, axis=-1)

    f00 = p(0, 0)
    fu = (p(1, 0) - p(-1, 0)) / (2 * h)
    fv = (p(0, 1) - p(0, -1)) / (2 * h)
    fuu = (p(1, 0) - 2 * f00 + p(-1, 0)) / (h * h)
    fvv = (p(0, 1) - 2 * f00 + p(0, -1)) / (h * h)
    fuv = (p(1, 1) - p(1, -1) - p(-1, 1) + p(-1, -1)) / (4 * h * h)
    nu = np.cross(fu, fv)
    nn = np.linalg.norm(nu, axis=-1)
    E, F, G = dot(fu, fu), dot(fu, fv), dot(fv, fv)
    den = E * G - F * F
    if np.any((nn < 1e-10) | (den < 1e-14)):
        raise DevfoldError("degenerate first fundamental form; the point is "
                           "at or past the focal set of the strip")
    nu = nu / nn[..., None]
    L, M, N = dot(fuu, nu), dot(fuv, nu), dot(fvv, nu)
    return (L * N - M * M) / den


def strip_isomers(strip: DevStrip) -> dict:
    """Dual, inverse and inverse-dual strips, produced by commuting the
    strip construction through the edge level."""
    if strip.source_nf is None:
        raise DevfoldError("strip isomers need a strip produced by ist")
    nf = strip.source_nf
    out = {"base": strip}
    out["dual"] = ist(dual(nf), strip.halfwidth)
    try:
        out["inverse"] = ist(inverse(nf), strip.halfwidth)
        out["inverse_dual"] = ist(inverse_dual(nf), strip.halfwidth)
    except NotAdmissible as err:
        out["notes"] = str(err)
    return out


@dataclass
class CurvedFolding:
    """Piecewise surface gluing a strip to its dual along a split rule.

    split="u" uses F for u > 0 and the dual strip for u < 0; split="v"
    uses F for v >= 0 and the dual for v <= 0.  Both pieces contain the
    crease v = 0, so Psi(u, 0) = c(u) in either rule.
    """

    strip: DevStrip
    dual_strip: DevStrip
    split: str = "u"

    def __post_init__(self):
        if self.split not in ("u", "v"):
            raise DevfoldError(f"split must be 'u' or 'v', got {self.split!r}")

    def __call__(self, u, v) -> np.ndarray:
        """Psi(u, v) over broadcastable u and v, shape (*shape, 3); each
        piece is evaluated on the points it owns only."""
        u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
        own = (u if self.split == "u" else v) >= 0
        out = np.empty(u.shape + (3,))
        for piece, rows in ((self.strip, own), (self.dual_strip, ~own)):
            if np.any(rows):
                out[rows] = evaluate_strip(piece, u[rows], v[rows])
        return out

    def pieces(self):
        return (self.strip, self.dual_strip)


def curved_folding(strip: DevStrip, split: str = "u") -> CurvedFolding:
    if strip.source_nf is None:
        raise DevfoldError("curved folding needs a strip produced by ist")
    dual_strip = ist(dual(strip.source_nf), strip.halfwidth)
    return CurvedFolding(strip, dual_strip, split)


# mesh plumbing ---------------------------------------------------------------

@dataclass
class MeshGrid:
    """Quad mesh on an (u, v) lattice, row-major station-then-width."""

    us: np.ndarray
    vs: np.ndarray
    vertices: np.ndarray     # shape (len(us) * len(vs), 3)
    faces: list              # quads as 4-tuples of 0-based vertex indices


def _grid_mesh(us, vs, verts) -> MeshGrid:
    """The quad mesh of vertices given station-then-width."""
    nv = len(vs)
    faces = []
    for i in range(len(us) - 1):
        for j in range(nv - 1):
            a = i * nv + j
            faces.append((a, a + nv, a + nv + 1, a + 1))
    return MeshGrid(us, vs, np.asarray(verts, float).reshape(-1, 3), faces)


def _lattice_mesh(fn, us, vs) -> MeshGrid:
    """Mesh of a per-point callable fn(u, v) -> 3-point."""
    us, vs = np.asarray(us, float), np.asarray(vs, float)
    return _grid_mesh(us, vs, [fn(u, v) for u in us for v in vs])


def strip_mesh(strip: DevStrip, nu: int = 33, nv: int = 9) -> MeshGrid:
    us = strip.stations(nu)
    vs = np.linspace(-strip.halfwidth, strip.halfwidth, nv)
    return _grid_mesh(us, vs, evaluate_strip(strip, us[:, None], vs))


def folding_mesh(fold: CurvedFolding, nu: int = 33, nv: int = 9) -> MeshGrid:
    us = fold.strip.stations(nu)
    vs = np.linspace(-fold.strip.halfwidth, fold.strip.halfwidth, nv)
    return _grid_mesh(us, vs, fold(us[:, None], vs))


def write_obj(mesh: MeshGrid, path) -> None:
    with open(path, "w") as fh:
        for p in mesh.vertices:
            fh.write("v %.9g %.9g %.9g\n" % (p[0], p[1], p[2]))
        for quad in mesh.faces:
            fh.write("f %d %d %d %d\n" % tuple(i + 1 for i in quad))


def write_profile_csv(strip: DevStrip, path) -> None:
    """u, alpha, beta, kappa and tau at the strip's 129 stations."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["u", "alpha", "beta",
                                           "kappa", "tau"])
        w.writeheader()
        prof = strip.profile(strip.stations(129))
        for i in range(129):
            w.writerow({k: "%.12g" % prof[k][i] for k in w.fieldnames})
