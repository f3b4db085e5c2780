"""Extrinsic symmetry detection at singular points of frontal surfaces.

At a cuspidal edge, swallowtail, or cuspidal cross cap the distinguished
frame singles out four candidate isometries: reflections across the
limiting tangent plane Pi0, the normal plane Pi1, the conormal plane Pi2,
and the half-turn about the conormal line l2.  These exhaust the possible
nontrivial image symmetries, so detection reduces to an image-invariance
test of each candidate.  Detected symmetries are cross-checked against the
consistency rules of the classification (an edge or cuspidal cross cap
never admits the Pi2 reflection; nonzero limiting normal curvature leaves
only the Pi1 reflection; a swallowtail admits only the Pi2 reflection),
and each symmetry T induces a domain involution psi with f o psi = T o f,
recovered through the connecting-map machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geom import LABEL_TO_CASE, Isometry, classify_isometry
from .germ import (DegenerateSingularity, NotSingular, SurfaceGerm, catalog,
                   distinguished_frame, limiting_normal_curvature)
from . import exprlang as ex
from .match import (ConnectingMap, _sample_grid, closest_image_point,
                    connecting_map)
from .numkit import Interval

__all__ = [
    "SymmetryFinding", "SelfIntersectionLocus", "detect_symmetries",
    "validate_findings", "connecting_involution", "self_intersections",
    "verify_c2", "ms_symmetry_check", "expected_catalog_labels",
    "SymmetryError",
]


class SymmetryError(Exception):
    pass


@dataclass
class SymmetryFinding:
    """An isometry leaving the germ image invariant near the base point."""

    isometry: Isometry
    label: str                 # case i / ii / iii / iv
    frame_label: str           # refl_Pi0 / refl_Pi1 / refl_Pi2 / rot180_l2
    residual: float
    psi: ConnectingMap | None = None
    checks: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "isometry": self.isometry.to_json(),
            "label": self.label,
            "frame_label": self.frame_label,
            "residual": self.residual,
            "checks": self.checks,
        }
        if self.psi is not None:
            out["psi"] = self.psi.to_json()
        return out


# ------------------------------------------------------------- image testing

def _image_tree(germ: SurfaceGerm, n: int = 16384):
    m = max(8, int(math.sqrt(n)))
    us, vs = germ.grid(m, m)
    xs = np.array([(u, v) for u in us for v in vs])
    return cKDTree(germ.points(xs)), xs


def _shrunken_domain(germ: SurfaceGerm, p, factor: float = 0.5):
    out = []
    for i, d in enumerate(germ.domain):
        r = factor * 0.5 * d.length
        lo = max(d.lo, p[i] - r)
        hi = min(d.hi, p[i] + r)
        out.append(Interval(lo, hi))
    return tuple(out)


def detect_symmetries(germ: SurfaceGerm, p=None, tol: float = 1e-6,
                      n_probe: int = 121, n_image: int = 16384,
                      extra_candidates: dict | None = None):
    """Frame-derived candidate isometries whose action maps the image of
    a half-radius neighborhood of p back into the full image.

    extra_candidates ("brute" mode) adds user-supplied isometries, which
    are classified against the frame before testing.
    """
    p = tuple(germ.base) if p is None else tuple(float(c) for c in p)
    frame = distinguished_frame(germ, p)
    tree, xs = _image_tree(germ, n_image)
    probes = _sample_grid(_shrunken_domain(germ, p), n_probe)
    candidates = dict(frame.candidate_isometries())
    if extra_candidates:
        candidates.update(extra_candidates)
    findings = []
    for label, T in candidates.items():
        worst = 0.0
        for q in probes:
            target = T(germ(q))
            d, _ = closest_image_point(germ, germ.domain, target, tree, xs)
            worst = max(worst, d)
            if worst > tol:
                break
        if worst < tol:
            case = LABEL_TO_CASE.get(label)
            if case is None:
                case = LABEL_TO_CASE.get(classify_isometry(T, frame), label)
            findings.append(SymmetryFinding(T, case, label, float(worst)))
    return findings


_EDGE_LIKE = ("cuspidal_edge", "cuspidal_cross_cap")


def validate_findings(germ: SurfaceGerm, findings, p=None,
                      tol: float = 1e-8) -> list:
    """Consistency rules of the classification; returns failure messages.

    Edge and cuspidal cross cap: case (iii) never occurs, and nonzero
    limiting normal curvature admits only case (ii).  Swallowtail: the
    finding set is exactly {(iii)} or empty.  Any type: the found
    isometries and the identity are closed under composition (matrices
    and translations matched to 1e-8).
    """
    failures = []
    cases = {f.label for f in findings}
    st = germ.sing_type
    if st in _EDGE_LIKE:
        if "iii" in cases:
            failures.append(
                f"{st} admits the conormal-plane reflection (iii), which "
                "the classification forbids")
        try:
            knu = limiting_normal_curvature(germ, p)
        except (NotSingular, DegenerateSingularity):
            knu = None
        if knu is not None and abs(knu) > tol and cases - {"ii"}:
            failures.append(
                f"limiting normal curvature {knu:.3e} is nonzero, so only "
                f"the normal-plane reflection (ii) is allowed; found "
                f"{sorted(cases)}")
    elif st == "swallowtail":
        if cases not in (set(), {"iii"}):
            failures.append(
                f"swallowtail findings must be exactly {{'iii'}} or empty; "
                f"found {sorted(cases)}")
    else:
        failures.append(f"unsupported singularity type {st!r}")
    return failures + _closure_failures(findings)


def _closure_failures(findings, tol: float = 1e-8) -> list:
    group = [("identity", Isometry.identity())]
    group += [(f.label, f.isometry) for f in findings]

    def member(T):
        return any(np.max(np.abs(T.Q - S.Q)) <= tol
                   and np.max(np.abs(T.b - S.b)) <= tol for _, S in group)

    return [f"symmetries not closed under composition: ({a}) after ({b}) "
            "is not among the findings"
            for a, A in group[1:] for b, B in group[1:]
            if not member(A.compose(B))]


# Reflections (i) and (ii) both fix the base point, so a germ admitting
# both also admits their composition, the half-turn (iv) about l2.
EXPECTED_CATALOG_LABELS = {
    "cuspidal_edge": {"i", "ii", "iv"},
    "swallowtail": {"iii"},
    "cuspidal_cross_cap": {"i", "ii", "iv"},
    "ccr_example": {"ii"},
}


def expected_catalog_labels(name: str) -> set:
    return set(EXPECTED_CATALOG_LABELS[name])


# ----------------------------------------------------- connecting involution

class _TransformedGerm(SurfaceGerm):
    """T o f as a germ; the raw normal transforms by det(Q) * Q."""

    def __init__(self, germ: SurfaceGerm, T: Isometry):
        nm = None
        if germ.normal_map is not None:
            d = T.det
            nm = lambda p: d * (T.Q @ np.asarray(germ.normal_map(p), float))
        super().__init__(lambda p: T(germ(p)), germ.domain, germ.base,
                         normal_map=nm, name=f"transformed_{germ.name}",
                         sing_type=germ.sing_type)
        self.germ = germ
        self.T = T

    def points(self, X) -> np.ndarray:
        return self.T(self.germ.points(X))

    def lift_points(self, X):
        F, nu = self.germ.lift_points(X)
        return self.T(F), self.T.det * (nu @ self.T.Q.T)


def connecting_involution(germ: SurfaceGerm, T: Isometry,
                          tol: float = 1e-6, n1: int = 81,
                          n2: int = 4096) -> dict:
    """Domain involution psi with f o psi = T o f, plus its diagnostics.

    Returns a report with the sampled psi, the involution residual
    sup|psi(psi(x)) - x|, the matching residuals, and orientation data
    (domain orientation and the direction of travel along the singular
    curve at the base point).
    """
    g1 = _TransformedGerm(germ, T)
    cm = connecting_map(g1, germ, tol=tol, n1=n1, n2=n2)
    k = max(1, len(cm.samples_in) // 16)
    X = np.array(cm.samples_in[::k])
    inv_err = float(np.max(np.linalg.norm(cm(cm(X)) - X, axis=1)))
    # orientation of psi at a regular probe point, and travel along the
    # singular curve {v = 0} near the base station
    h = 1e-4
    p0 = np.asarray(germ.base, float) + np.array([0.1, 0.1])
    p0 = np.array([min(max(p0[i], germ.domain[i].lo + 2 * h),
                       germ.domain[i].hi - 2 * h) for i in range(2)])
    b = np.asarray(germ.base, float)
    eu, ev = np.array([h, 0.0]), np.array([0.0, h])
    P = cm(np.array([p0 + eu, p0 - eu, p0 + ev, p0 - ev, b + eu, b - eu]))
    J = np.column_stack([(P[0] - P[1]) / (2 * h), (P[2] - P[3]) / (2 * h)])
    detJ = float(np.linalg.det(J))
    du = (P[4][0] - P[5][0]) / (2 * h)
    return {
        "psi": cm,
        "sign": cm.sign,
        "involution_residual": inv_err,
        "residual_image": cm.residual_image,
        "residual_normal": cm.residual_normal,
        "orientation": "preserving" if detJ > 0 else "reversing",
        "jacobian_det": detJ,
        "singular_curve_direction": "preserved" if du > 0 else "reversed",
    }


# --------------------------------------------------------- self-intersections

@dataclass
class SelfIntersectionLocus:
    pairs: list          # ((u, v), (u', v')) with f equal at both
    images: np.ndarray   # one image point per pair, polyline-ordered

    @property
    def empty(self) -> bool:
        return len(self.pairs) == 0

    def to_json(self) -> dict:
        return {
            "pairs": [[list(map(float, a)), list(map(float, b))]
                      for a, b in self.pairs],
            "images": [list(map(float, p)) for p in self.images],
        }


def self_intersections(germ: SurfaceGerm, region=None, tol: float = 1e-8,
                       n: int = 129) -> SelfIntersectionLocus:
    """Distinct-preimage coincidences f(q) = f(q') with |q - q'| bounded
    below, found by spatial hashing and Gauss-Newton refinement."""
    dom = germ.domain if region is None else tuple(
        d if isinstance(d, Interval) else Interval(*d) for d in region)
    us = dom[0].grid(n)
    vs = dom[1].grid(n)
    xs = np.array([(u, v) for u in us for v in vs])
    pts = germ.points(xs)
    tree = cKDTree(pts)
    spacing = max(dom[0].length, dom[1].length) / (n - 1)
    sep_min = 4.0 * spacing
    # image-space pairing radius: a bit beyond one image cell
    d_nn, _ = tree.query(pts[:: max(1, len(pts) // 512)], k=2)
    r = 1.5 * float(np.median(d_nn[:, 1]))
    raw = np.array(sorted(tree.query_pairs(r)), dtype=int).reshape(-1, 2)
    if len(raw):
        far = (np.linalg.norm(xs[raw[:, 0]] - xs[raw[:, 1]], axis=1)
               > sep_min)
        raw = raw[far]
    # one Gauss-Newton refinement per coarse cell pair, seeded with the
    # closest image pair in that cell
    cell = 8.0 * spacing
    reps = {}
    for i, j in raw:
        gap = float(np.linalg.norm(pts[i] - pts[j]))
        ka = (round(xs[i][0] / cell), round(xs[i][1] / cell))
        kb = (round(xs[j][0] / cell), round(xs[j][1] / cell))
        key = (min(ka, kb), max(ka, kb))
        if key not in reps or gap < reps[key][0]:
            reps[key] = (gap, i, j)
    seen = {}
    for _, i, j in reps.values():
        res, q, qp = _refine_pair(germ, dom, xs[i].astype(float),
                                  xs[j].astype(float))
        if res > tol or np.linalg.norm(q - qp) < sep_min:
            continue
        if q[0] > qp[0] or (q[0] == qp[0] and q[1] > qp[1]):
            q, qp = qp, q
        key = (round(q[0] / spacing), round(q[1] / spacing))
        if key not in seen:
            seen[key] = (tuple(q), tuple(qp), germ(tuple(q)))
    pairs = [(a, b) for a, b, _ in seen.values()]
    images = np.array([im for _, _, im in seen.values()]).reshape(-1, 3)
    if len(images) > 1:
        # order into a polyline along the dominant image direction
        ctr = images - images.mean(axis=0)
        axis = np.linalg.svd(ctr, full_matrices=False)[2][0]
        order = np.argsort(ctr @ axis)
        pairs = [pairs[i] for i in order]
        images = images[order]
    return SelfIntersectionLocus(pairs, images)


def _refine_pair(germ, dom, q, qp, iters: int = 25):
    lam = 1e-8
    h = 1e-6

    def res_vec(x):
        return germ((x[0], x[1])) - germ((x[2], x[3]))

    x = np.concatenate([q, qp])
    lohi = [dom[0], dom[1], dom[0], dom[1]]
    best = (np.linalg.norm(res_vec(x)), x)
    for _ in range(iters):
        r = res_vec(x)
        cols = []
        for i in range(4):
            dp = x.copy(); dm = x.copy()
            dp[i] += h; dm[i] -= h
            cols.append((res_vec(dp) - res_vec(dm)) / (2 * h))
        J = np.stack(cols, axis=1)
        try:
            step = np.linalg.solve(J.T @ J + lam * np.eye(4), -J.T @ r)
        except np.linalg.LinAlgError:
            break
        xn = np.array([min(max(x[i] + step[i], lohi[i].lo), lohi[i].hi)
                       for i in range(4)])
        rn = np.linalg.norm(res_vec(xn))
        if rn < best[0]:
            best = (rn, xn)
            x = xn
            lam = max(lam * 0.3, 1e-14)
        else:
            lam *= 10.0
            if lam > 1e8:
                break
    r, x = best
    return float(r), x[:2], x[2:]


def verify_c2(germ: SurfaceGerm, finding: SymmetryFinding,
              locus: SelfIntersectionLocus, tol: float = 1e-6,
              p=None) -> dict:
    """Fixed-point checks on the self-intersection locus.

    Checks that the image of the locus is fixed by T pointwise, that
    f o psi = f on the locus preimages, that psi fixes no locus point away
    from the base point, and, for cuspidal cross caps, that the locus
    image lies in the normal plane Pi1 through f(p).
    """
    p = np.asarray(germ.base if p is None else p, float)
    fp = germ(tuple(p))
    T = finding.isometry
    report = {"vacuous": locus.empty, "image_fixed": True,
              "f_psi_matches": True, "fixed_points_only_base": True}
    if locus.empty:
        return report
    rep = connecting_involution(germ, T, tol=max(tol, 1e-6))
    psi = rep["psi"]
    cell = max(d.length for d in germ.domain) / 64.0
    worst_fix = 0.0
    for (q, qp), im in zip(locus.pairs, locus.images):
        worst_fix = max(worst_fix, float(np.linalg.norm(T(im) - im)))
        y = np.asarray(psi(np.asarray(q, float)))
        if np.linalg.norm(germ(tuple(y)) - germ(q)) > 10 * tol:
            report["f_psi_matches"] = False
        if (np.linalg.norm(y - np.asarray(q)) < 1e-6
                and np.linalg.norm(np.asarray(q) - p) > cell):
            report["fixed_points_only_base"] = False
    report["image_fixed"] = bool(worst_fix < 10 * tol)
    report["image_fix_residual"] = worst_fix
    if germ.sing_type == "cuspidal_cross_cap":
        frame = distinguished_frame(germ, tuple(p))
        off = max(abs(float((im - fp) @ frame.tangent)) for im in locus.images)
        report["locus_in_Pi1"] = bool(off < 10 * tol)
        report["Pi1_offset"] = off
    return report


# --------------------------------------------------------------- parity check

def ms_symmetry_check(a0: str, b0: str, b2: str, b3: str,
                      tol: float = 1e-8, det_tol: float = 1e-6):
    """Parity probe for the coefficient functions of the edge form
    (u, a0 + v^2, b0 u^2 + b2 u v^2 + b3 v^3).

    Even a0 and b0, odd b2, and u-even b3 force the normal-plane
    reflection x -> -x; the verdict is confirmed (or refuted) by running
    the detector on the built germ.  Also reports whether the limiting
    normal curvature is nonzero, which happens exactly when b0(0) != 0.
    """
    a0e, b0e, b2e, b3e = (ex.compile_expr(ex.parse(s), ("u", "v"))
                          for s in (a0, b0, b2, b3))
    us = np.linspace(-0.4, 0.4, 9)
    vs = np.linspace(-0.3, 0.3, 7)

    def f1(e, u):
        return float(e(float(u), 0.0))

    def f2(e, u, v):
        return float(e(float(u), float(v)))

    verdict = {
        "a0_even": all(abs(f1(a0e, u) - f1(a0e, -u)) < tol for u in us),
        "b0_even": all(abs(f1(b0e, u) - f1(b0e, -u)) < tol for u in us),
        "b2_odd": all(abs(f1(b2e, u) + f1(b2e, -u)) < tol for u in us),
        "b3_u_even": all(abs(f2(b3e, u, v) - f2(b3e, -u, v)) < tol
                         for u in us for v in vs),
    }
    verdict["all"] = all(verdict.values())
    verdict["kappa_nu_nonzero"] = abs(f1(b0e, 0.0)) > tol
    germ = catalog("ms_edge", a0=a0, b0=b0, b2=b2, b3=b3)
    findings = detect_symmetries(germ, tol=det_tol)
    found = next((f for f in findings if f.frame_label == "refl_Pi1"), None)
    return verdict, found
