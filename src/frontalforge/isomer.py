"""Isomers of a cuspidal edge: dual, inverse, inverse-dual; class counting.

Isomers are handled at the (crease, cuspidal angle) level: the dual negates
theta along the same crease; the inverse reverses the crease orientation and
transports theta through cos(theta_*)(u) = kappa(u)/kappa(-u) cos(theta(u))
with the sign rule theta(-u) theta_*(u) > 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exprlang as ex
from .curve import SpaceCurve, _Reparam, frenet
from .normalform import EdgeNormalForm, ScalarProfile

__all__ = [
    "SymmetryPredicates", "IsomerSet", "admissible", "dual", "inverse",
    "inverse_dual", "isomer_set", "right_equivalence_classes",
    "congruence_count", "IsomerError", "NotAdmissible",
]


class IsomerError(Exception):
    pass


class NotAdmissible(IsomerError):
    pass


@dataclass(frozen=True)
class SymmetryPredicates:
    """Declared symmetry inputs for the congruence decision table.

    curve_symmetry: none | positive | negative (orientation of the isometry
    exchanging the crease ends); metric_symmetry: none | symmetry |
    effective_symmetry.  These are declared (or heuristically suggested),
    never silently inferred.
    """

    planar: bool = False
    curve_symmetry: str = "none"
    metric_symmetry: str = "none"

    def __post_init__(self):
        if self.curve_symmetry not in ("none", "positive", "negative"):
            raise ValueError(f"bad curve_symmetry '{self.curve_symmetry}'")
        if self.metric_symmetry not in ("none", "symmetry", "effective_symmetry"):
            raise ValueError(f"bad metric_symmetry '{self.metric_symmetry}'")


def _station_data(nf: EdgeNormalForm, n: int = 129):
    us = nf.stations(n)
    fr = nf.frame(us)
    return us, fr.kappa, fr.tau, nf.theta(us)


def admissible(nf: EdgeNormalForm) -> tuple:
    """(admissible, strict) over 129 stations: max|kappa_s| < min kappa;
    strict adds 0 < min|kappa_s|."""
    _, kap, _, th = _station_data(nf)
    return _admissible(kap, th)


def _admissible(kap, th) -> tuple:
    if np.min(kap) <= 0:
        raise IsomerError("crease curvature must be positive")
    ks = kap * np.cos(th)
    adm = bool(np.max(np.abs(ks)) < np.min(kap))
    strict = adm and bool(np.min(np.abs(ks)) > 0.0)
    return adm, strict


def dual(nf: EdgeNormalForm) -> EdgeNormalForm:
    """Same crease, theta -> -theta.  Needs kappa_nu = kappa sin(theta)
    above 1e-12 in size at all 129 stations."""
    _, kap, _, th = _station_data(nf)
    return _dual(nf, kap, th)


def _dual(nf: EdgeNormalForm, kap, th) -> EdgeNormalForm:
    if np.min(np.abs(kap * np.sin(th))) <= 1e-12:
        raise IsomerError("dual undefined: limiting normal curvature has a zero")
    return EdgeNormalForm(nf.crease, nf.theta.negated(), nf.a, nf.b,
                          nf.halfwidth, nf.interval)


def _reverse_crease(crease: SpaceCurve) -> SpaceCurve:
    dom = crease.domain
    if abs(dom.lo + dom.hi) > 1e-12:
        raise IsomerError("inverse needs a symmetric station interval")
    if crease.is_expression:
        m = crease.map
        vn = m.variables[0]
        comps = [ex.subs(c, vn, ex.neg(ex.var(vn))) for c in m.components]
        return SpaceCurve(ex.MapDef(m.name + "_rev", (vn,), comps, m.params),
                          dom, crease.name + "_rev")
    return SpaceCurve(_Reparam(crease, -1.0, 0.0), dom, crease.name + "_rev")


def inverse(nf: EdgeNormalForm) -> EdgeNormalForm:
    adm, _ = admissible(nf)
    if not adm:
        raise NotAdmissible("inverse isomer requires an admissible edge")
    return _inverse(nf)


def _inverse(nf: EdgeNormalForm) -> EdgeNormalForm:
    """`inverse` of an edge already known to be admissible."""
    if abs(nf.interval.lo + nf.interval.hi) > 1e-12:
        raise IsomerError("inverse needs a symmetric station interval")
    crease_rev = _reverse_crease(nf.crease)
    base_theta = nf.theta
    base_crease = nf.crease

    def theta_star(u):
        u = np.asarray(u, dtype=float)
        k, k_rev = frenet(base_crease, np.stack([u, -u])).kappa
        g = np.clip(k / k_rev * np.cos(base_theta(u)), -1.0, 1.0)
        th_rev = base_theta(-u)
        sign = np.where(th_rev != 0, np.copysign(1.0, th_rev), 1.0)
        return sign * np.arccos(g)

    prof = ScalarProfile(theta_star)
    # a, b are not determined by the angle laws alone; left unset
    out = EdgeNormalForm(crease_rev, prof, None, None, nf.halfwidth, nf.interval)
    return out


def inverse_dual(nf: EdgeNormalForm) -> EdgeNormalForm:
    return inverse(dual(nf))


@dataclass
class IsomerSet:
    base: EdgeNormalForm
    dual: EdgeNormalForm | None
    inverse: EdgeNormalForm | None
    inverse_dual: EdgeNormalForm | None
    admissible: bool
    strict: bool
    notes: list

    def members(self):
        out = [("base", self.base)]
        for name in ("dual", "inverse", "inverse_dual"):
            m = getattr(self, name)
            if m is not None:
                out.append((name, m))
        return out

    def report(self) -> dict:
        """Each member's theta at 65 stations, and the admissibility."""
        profs = {}
        for name, m in self.members():
            us = m.stations(65)
            profs[name] = {
                "u": us.tolist(),
                "theta": m.theta(us).tolist(),
            }
        return {"admissible": self.admissible, "strict": self.strict,
                "profiles": profs, "notes": list(self.notes)}


def isomer_set(nf: EdgeNormalForm, n: int = 129) -> IsomerSet:
    # one Frenet call: the dual has the edge's kappa and |theta|, so it is
    # admissible exactly when the edge is
    _, kap, _, th = _station_data(nf, n)
    adm, strict = _admissible(kap, th)
    notes = []
    d = i = di = None
    try:
        d = _dual(nf, kap, th)
    except IsomerError as exc:
        notes.append(f"dual unavailable: {exc}")
    if adm:
        i = _inverse(nf)
        if d is not None:
            di = _inverse(d)
    else:
        notes.append("inverse unavailable: edge is not admissible")
    return IsomerSet(nf, d, i, di, adm, strict, notes)


def right_equivalence_classes(iso: IsomerSet, tol: float = 1e-8) -> int:
    """Distinct members of {base, dual, inverse, inverse_dual}, identifying
    two normal forms when their (kappa, tau, theta) profiles over 257
    stations agree up to the reversal u -> -u (the station interval is
    symmetric, so the shift of u -> +-u + c is pinned to zero)."""
    members = iso.members()
    if len(members) < 4:
        raise IsomerError("all four isomers must be defined for class counting")
    data = []
    for _, m in members:
        data.append(_station_data(m, 257)[1:])  # kappa, tau, theta

    def same(i, j):
        (k1, t1, h1), (k2, t2, h2) = data[i], data[j]
        for sl in (slice(None), slice(None, None, -1)):
            if (np.max(np.abs(k1 - k2[sl])) < tol
                    and np.max(np.abs(t1 - t2[sl])) < tol
                    and np.max(np.abs(h1 - h2[sl])) < tol):
                return True
        return False

    classes = []
    for i in range(len(members)):
        for cl in classes:
            if same(i, cl[0]):
                cl.append(i)
                break
        else:
            classes.append([i])
    return len(classes)


def congruence_count(pred: SymmetryPredicates) -> tuple:
    """Number of congruence classes among the four isomers, from declared
    symmetry predicates.  Returns (count, exact)."""
    has_curve = pred.curve_symmetry != "none"
    has_metric = pred.metric_symmetry != "none"
    if not has_curve and not has_metric and not pred.planar:
        return 4, True
    if ((pred.planar and has_curve)
            or (pred.planar and has_metric)
            or (pred.curve_symmetry == "positive" and has_metric)):
        return 1, True
    return 2, False
