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

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geom import LABEL_TO_CASE, Isometry
from .germ import (DegenerateSingularity, NotSingular, SurfaceGerm,
                   area_density, catalog, distinguished_frame,
                   limiting_normal_curvature)
from . import exprlang as ex
from .match import (ConnectingMap, _corners, _sample_grid,
                    closest_image_point, connecting_map)
from .numkit import Interval, damped_gauss_newton

__all__ = [
    "SymmetryFinding", "SelfIntersectionLocus", "detect_symmetries",
    "validate_findings", "connecting_involution", "self_intersections",
    "verify_c2", "ms_symmetry_check", "EXPECTED_CATALOG_LABELS",
]


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

def _image_tree(germ: SurfaceGerm):
    """The image of a 128 x 128 grid of germ's domain in a KD-tree, and
    the grid points."""
    xs = _sample_grid(germ.domain, 128 ** 2)
    return cKDTree(germ.points(xs), balanced_tree=False,
                   compact_nodes=False), xs


def _shrunken_domain(germ: SurfaceGerm, p):
    """The half-size domain around p, clipped to the germ's domain."""
    out = []
    for i, d in enumerate(germ.domain):
        r = 0.25 * d.length
        lo = max(d.lo, p[i] - r)
        hi = min(d.hi, p[i] + r)
        out.append(Interval(lo, hi))
    return tuple(out)


def detect_symmetries(germ: SurfaceGerm, p=None, tol: float = 1e-6):
    """Frame-derived candidate isometries whose action maps the image of
    a half-radius neighborhood of p back into the full image, tested on
    an 11 x 11 grid of probes over that neighborhood.

    Probe images are polished in one solve (`closest_image_point`), on
    the grid path of the germ's expression map (the frame needs its exact
    jets).  The four corners of the probe grid, the probes farthest from
    p, decide at seeding: a candidate with a corner image that the image
    samples show to lie farther than 2 tol from the image is dropped
    before the solve, and its residual is inf.  Every other candidate is
    polished on all its probes, and its residual is the worst over them.
    """
    p = tuple(germ.base) if p is None else tuple(float(c) for c in p)
    frame = distinguished_frame(germ, p)
    tree, xs = _image_tree(germ)
    probes = _sample_grid(_shrunken_domain(germ, p), 121)
    candidates = frame.candidate_isometries()
    F = germ.points(probes)
    dist, _ = closest_image_point(
        germ, germ.domain, np.stack([T(F) for T in candidates.values()]),
        tree, xs, corner=_corners(len(probes), 2), tol=tol)
    worst = dist.max(axis=1)
    findings = []
    for (label, T), w in zip(candidates.items(), worst.tolist()):
        if w < tol:
            findings.append(SymmetryFinding(T, LABEL_TO_CASE[label], label, w))
    return findings


_EDGE_LIKE = ("cuspidal_edge", "cuspidal_cross_cap")


def validate_findings(germ: SurfaceGerm, findings, p=None) -> list:
    """Consistency rules of the classification; returns failure messages.

    Edge and cuspidal cross cap: case (iii) never occurs, and a limiting
    normal curvature above 1e-8 in size admits only case (ii).
    Swallowtail: the finding set is exactly {(iii)} or empty.  Any type:
    the found isometries and the identity are closed under composition
    (matrices and translations matched to 1e-8).
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
        if knu is not None and abs(knu) > 1e-8 and cases - {"ii"}:
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


def _closure_failures(findings) -> list:
    group = [("identity", Isometry.identity())]
    group += [(f.label, f.isometry) for f in findings]

    def member(T):
        return any(np.max(np.abs(T.Q - S.Q)) <= 1e-8
                   and np.max(np.abs(T.b - S.b)) <= 1e-8 for _, S in group)

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


# ----------------------------------------------------- connecting involution

class _TransformedGerm:
    """The lift of T o f: the germ's lift, with the image moved by T and
    the normal by det(Q) * Q, on the germ's domain."""

    def __init__(self, germ: SurfaceGerm, T: Isometry):
        self.germ = germ
        self.T = T
        self.domain = germ.domain

    def points(self, X) -> np.ndarray:
        return self.T(self.germ.points(X))

    def lift_points(self, X):
        F, nu = self.germ.lift_points(X)
        return self.T(F), self.T.det * (nu @ self.T.Q.T)


def connecting_involution(germ: SurfaceGerm, T: Isometry,
                          tol: float = 1e-6) -> dict:
    """Domain involution psi with f o psi = T o f, plus its diagnostics.

    Returns a report with the sampled psi, the involution residual
    sup|psi(psi(x)) - x| over every k-th sample x, the matching residuals,
    and orientation data (domain orientation and the direction of travel
    along the singular curve at the base point, which psi fixes).  psi(x)
    at a sample is the polished sample of the connecting map, so the
    second application of psi and psi at the orientation point share one
    solver call.  psi is sampled on a 9 x 9 grid, against 4096 lift
    samples of the germ.

    Both orientation data follow from the normal sign e of psi.  With
    lambda the area density, f o psi = T o f gives lambda(psi(p))
    det Dpsi(p) = e lambda(p), read at the regular point p0 = base +
    (0.1, 0.1) clipped to the domain.  Differentiated at the fixed base
    point, it makes Dpsi map the singular curve's tangent to
    (det Dpsi)^2 / e times itself: psi keeps the curve's direction
    exactly when e = +1.
    """
    g1 = _TransformedGerm(germ, T)
    cm = connecting_map(g1, germ, tol=tol, n1=81, n2=4096)
    k = max(1, len(cm.samples_in) // 16)
    X = cm.samples_in[::k]
    p0 = np.clip(np.asarray(germ.base, float) + 0.1,
                 [d.lo for d in germ.domain], [d.hi for d in germ.domain])
    P = cm(np.concatenate([cm.samples_out[::k], p0[None]]))
    inv_err = float(np.max(np.linalg.norm(P[:-1] - X, axis=1)))
    lam = area_density(germ).grid(np.array([p0[0], P[-1, 0]]),
                                  np.array([p0[1], P[-1, 1]]))
    detJ = float(cm.sign * lam[0] / lam[1])
    return {
        "psi": cm,
        "sign": cm.sign,
        "involution_residual": inv_err,
        "residual_image": cm.residual_image,
        "residual_normal": cm.residual_normal,
        "orientation": "preserving" if detJ > 0 else "reversing",
        "jacobian_det": detJ,
        "singular_curve_direction": ("preserved" if cm.sign > 0
                                     else "reversed"),
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


def self_intersections(germ: SurfaceGerm,
                       tol: float = 1e-8) -> SelfIntersectionLocus:
    """Distinct-preimage coincidences f(q) = f(q') with |q - q'| bounded
    below, found by spatial hashing of the image of a 129 x 129 grid of
    the germ's domain and Gauss-Newton refinement."""
    dom = germ.domain
    xs = _sample_grid(dom, 129 ** 2)
    pts = germ.points(xs)
    tree = cKDTree(pts)
    spacing = max(dom[0].length, dom[1].length) / 128
    sep_min = 4.0 * spacing
    # image-space pairing radius: a bit beyond one image cell
    d_nn, _ = tree.query(pts[:: max(1, len(pts) // 512)], k=2)
    r = 1.5 * float(np.median(d_nn[:, 1]))
    raw = tree.query_pairs(r, output_type="ndarray")
    raw = raw[np.lexsort((raw[:, 1], raw[:, 0]))]
    raw = raw[np.linalg.norm(xs[raw[:, 0]] - xs[raw[:, 1]], axis=1)
              > sep_min]
    # one Gauss-Newton refinement per coarse cell pair, seeded with the
    # closest image pair in that cell; the pair's four cell indices,
    # shifted to start at 0, are flattened in lexicographic order
    cell = 8.0 * spacing
    ka = np.round(xs[raw[:, 0]] / cell).astype(np.int64)
    kb = np.round(xs[raw[:, 1]] / cell).astype(np.int64)
    swap = ((ka[:, 0] > kb[:, 0])
            | ((ka[:, 0] == kb[:, 0]) & (ka[:, 1] > kb[:, 1])))
    keys = np.where(swap[:, None], np.hstack([kb, ka]), np.hstack([ka, kb]))
    keys -= keys.min(axis=0, initial=0)
    keys = np.ravel_multi_index(keys.T, keys.max(axis=0, initial=0) + 1)
    gap = np.linalg.norm(pts[raw[:, 0]] - pts[raw[:, 1]], axis=1)
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.lexsort((gap, group))
    best = order[np.diff(group[order], prepend=-1) != 0]
    seeds = raw[best[np.argsort(first)]]
    lo = np.array([dom[0].lo, dom[1].lo] * 2)
    hi = np.array([dom[0].hi, dom[1].hi] * 2)

    def gap_fn(X):
        F = germ.points(np.concatenate([X[:, :2], X[:, 2:]]))
        return F[:len(X)] - F[len(X):]

    x, res, _ = damped_gauss_newton(gap_fn, np.zeros((len(seeds), 3)),
                                    xs[seeds].reshape(-1, 4), lo, hi, 25)
    # the converged pairs, each ordered lexicographically, and of those
    # whose q rounds to the same grid node the first
    q, qp = x[:, :2], x[:, 2:]
    swap = ((q[:, 0] > qp[:, 0])
            | ((q[:, 0] == qp[:, 0]) & (q[:, 1] > qp[:, 1])))[:, None]
    q, qp = np.where(swap, qp, q), np.where(swap, q, qp)
    bad = (res > tol) | (np.linalg.norm(q - qp, axis=1) < sep_min)
    q, qp = q[~bad], qp[~bad]
    first = np.sort(np.unique(np.round(q / spacing), axis=0,
                              return_index=True)[1])
    q, qp = q[first], qp[first]
    pairs = list(zip(map(tuple, q.tolist()), map(tuple, qp.tolist())))
    # the float path, point by point: the grid path can differ in the last
    # bit (sw_example), and the images are reported
    images = np.array([germ(a) for a, _ in pairs]).reshape(-1, 3)
    if len(images) > 1:
        # order into a polyline along the dominant image direction, with
        # the axis's sign fixed (largest-magnitude component positive) so
        # that a rounding-level change cannot reverse the order
        ctr = images - images.mean(axis=0)
        axis = np.linalg.svd(ctr, full_matrices=False)[2][0]
        if axis[np.argmax(np.abs(axis))] < 0:
            axis = -axis
        order = np.argsort(ctr @ axis)
        pairs = [pairs[i] for i in order]
        images = images[order]
    return SelfIntersectionLocus(pairs, images)


def verify_c2(germ: SurfaceGerm, finding: SymmetryFinding,
              locus: SelfIntersectionLocus, tol: float = 1e-6,
              p=None) -> dict:
    """Fixed-point checks on the self-intersection locus.

    Checks that the image of the locus is fixed by T pointwise, that
    f o psi = f on the locus preimages, that psi fixes no locus point away
    from the base point, and, for cuspidal cross caps, that the locus
    image lies in the normal plane Pi1 through f(p).  psi is polished at
    all locus preimages in one solver call.
    """
    p = np.asarray(germ.base if p is None else p, float)
    T = finding.isometry
    report = {"vacuous": locus.empty, "image_fixed": True,
              "f_psi_matches": True, "fixed_points_only_base": True}
    if locus.empty:
        return report
    psi = connecting_involution(germ, T, tol=max(tol, 1e-6))["psi"]
    q = np.array(locus.pairs)[:, 0]
    y = psi(q)
    cell = max(d.length for d in germ.domain) / 64.0
    ims = locus.images
    worst_fix = float(np.max(np.linalg.norm(T(ims) - ims, axis=1)))
    gap = np.linalg.norm(germ.points(y) - germ.points(q), axis=1)
    report["f_psi_matches"] = not np.any(gap > 10 * tol)
    report["fixed_points_only_base"] = not np.any(
        (np.linalg.norm(y - q, axis=1) < 1e-6)
        & (np.linalg.norm(q - p, axis=1) > cell))
    report["image_fixed"] = bool(worst_fix < 10 * tol)
    report["image_fix_residual"] = worst_fix
    if germ.sing_type == "cuspidal_cross_cap":
        frame = distinguished_frame(germ, tuple(p))
        off = float(np.max(np.abs((ims - germ(tuple(p))) @ frame.tangent)))
        report["locus_in_Pi1"] = bool(off < 10 * tol)
        report["Pi1_offset"] = off
    return report


# --------------------------------------------------------------- parity check

def ms_symmetry_check(a0: str, b0: str, b2: str, b3: str):
    """Parity probe for the coefficient functions of the edge form
    (u, a0 + v^2, b0 u^2 + b2 u v^2 + b3 v^3).

    Even a0 and b0, odd b2, and u-even b3 force the normal-plane
    reflection x -> -x; the verdict is confirmed (or refuted) by running
    the detector on the built germ.  Also reports whether the limiting
    normal curvature is nonzero, which happens exactly when b0(0) != 0.
    Parities are checked to 1e-8 at 9 stations u (b3 on a 9 x 7 grid)
    against -u, all in one checked grid evaluation.
    """
    m = ex.MapDef("ms_parity", ("u", "v"), [a0, b0, b2, b3])
    us = np.linspace(-0.4, 0.4, 9)
    U, V = np.meshgrid(us, np.linspace(-0.3, 0.3, 7), indexing="ij")
    U, V = U.ravel(), V.ravel()
    zero = np.zeros(2 * len(us) + 1)
    vals = m.values({"u": np.concatenate([us, -us, [0.0], U, -U]),
                     "v": np.concatenate([zero, V, V])})
    at, neg = vals[:3, :len(us)], vals[:3, len(us):2 * len(us)]
    b3_at, b3_neg = np.split(vals[3, len(zero):], 2)
    verdict = {
        "a0_even": bool(np.all(np.abs(at[0] - neg[0]) < 1e-8)),
        "b0_even": bool(np.all(np.abs(at[1] - neg[1]) < 1e-8)),
        "b2_odd": bool(np.all(np.abs(at[2] + neg[2]) < 1e-8)),
        "b3_u_even": bool(np.all(np.abs(b3_at - b3_neg) < 1e-8)),
    }
    verdict["all"] = all(verdict.values())
    verdict["kappa_nu_nonzero"] = bool(abs(vals[1, 2 * len(us)]) > 1e-8)
    germ = catalog("ms_edge", a0=a0, b0=b0, b2=b2, b3=b3)
    found = next((f for f in detect_symmetries(germ)
                  if f.frame_label == "refl_Pi1"), None)
    return verdict, found
