"""End-to-end acceptance checks, one per numbered criterion.

conftest.py prints a single "ACCEPTANCE <n> <name>: PASS/FAIL" line per
test in the terminal summary.
"""

import itertools
import math
import numpy as np
import pytest

from frontalforge.curve import (SpaceCurve, arclength_param, center_param,
                                circle, frenet, helix)
from frontalforge.devfold import gaussian_curvature, ist, second_angle, \
    strip_isomers
from frontalforge.exprlang import MapDef
from frontalforge.geom import Isometry
from frontalforge.germ import catalog, limiting_normal_curvature
from frontalforge.isomer import (NotAdmissible, SymmetryPredicates,
                                 congruence_count, dual, inverse)
from frontalforge.match import PlaneMap, connecting_map, properness_probe
from frontalforge.normalform import (EdgeNormalForm, ScalarProfile,
                                     SurfaceProfile, from_normal_form,
                                     to_normal_form)
from frontalforge.numkit import Interval
from frontalforge.symmetry import (EXPECTED_CATALOG_LABELS,
                                   connecting_involution, detect_symmetries,
                                   ms_symmetry_check, self_intersections,
                                   verify_c2)




def edge(crease, theta):
    one = SurfaceProfile.constant(1.0)
    th = theta if isinstance(theta, ScalarProfile) else \
        ScalarProfile.constant(theta)
    return EdgeNormalForm(crease, th, one, one)


@pytest.fixture(scope="module")
def catalog_findings():
    names = ("cuspidal_edge", "swallowtail", "cuspidal_cross_cap",
             "ccr_example")
    out = {}
    for name in names:
        germ = catalog(name)
        out[name] = (germ, detect_symmetries(germ, tol=1e-6))
    return out


@pytest.fixture(scope="module")
def round_trip_forms():
    circ = edge(circle(1.0, 1.5), 0.3)
    hel = edge(helix(1.0, 1.0, 1.5), ScalarProfile.from_expr(
        "0.3 + 0.1*sin(u)"))
    out = []
    for nf in (circ, hel):
        nf2 = to_normal_form(from_normal_form(nf), n_stations=33, nv=33)
        out.append((nf, nf2))
    return out


@pytest.fixture(scope="module")
def wavy_edge():
    crease = MapDef("wavy", ("t",), ("cos(t)", "sin(t)", "t + 0.1*sin(2*t)"),
                    {})
    base = SpaceCurve(crease, Interval(-1.5, 1.5))
    return center_param(arclength_param(base))


def _closed_under_compose(isometries, atol=1e-8):
    group = [Isometry.identity(), *isometries]
    products = (A.compose(B) for A in group for B in group)
    return all(any(np.allclose(P.Q, C.Q, atol=atol)
                   and np.allclose(P.b, C.b, atol=atol) for C in group)
               for P in products)


def test_acceptance_01_symmetry_catalog(catalog_findings):
    # cuspidal_edge and cuspidal_cross_cap share the frame with tangent z
    # and normal y: (i) is y -> -y, (ii) is z -> -z, and their composition
    # (iv) is the half-turn about the x-axis
    expected = {
        "cuspidal_edge": {"i": np.diag([1.0, -1.0, 1.0]),
                          "ii": np.diag([1.0, 1.0, -1.0]),
                          "iv": np.diag([1.0, -1.0, -1.0])},
        "cuspidal_cross_cap": {"i": np.diag([1.0, -1.0, 1.0]),
                               "ii": np.diag([1.0, 1.0, -1.0]),
                               "iv": np.diag([1.0, -1.0, -1.0])},
        "swallowtail": {"iii": np.diag([1.0, -1.0, 1.0])},
        "ccr_example": {"ii": np.diag([-1.0, 1.0, 1.0])},
    }
    for name, want in expected.items():
        assert set(want) == EXPECTED_CATALOG_LABELS[name], \
            f"{name}: test expects {sorted(want)}, EXPECTED_CATALOG_LABELS " \
            f"has {sorted(EXPECTED_CATALOG_LABELS[name])}"
        assert _closed_under_compose(Isometry(Q) for Q in want.values()), \
            f"expected symmetries of {name} are not closed under compose"
    mismatches = []
    for name, want in expected.items():
        _, findings = catalog_findings[name]
        got = {f.label: f for f in findings}
        if set(got) != set(want):
            mismatches.append(f"{name}: expected labels {sorted(want)}, "
                              f"found {sorted(got)}")
            continue
        for label, Q in want.items():
            f = got[label]
            if f.residual >= 1e-6 or not np.allclose(f.isometry.Q, Q,
                                                     atol=1e-8):
                mismatches.append(
                    f"{name} ({label}): residual {f.residual:.3e}, "
                    f"matrix {f.isometry.Q.tolist()}, expected "
                    f"{Q.tolist()}")
    assert not mismatches, "; ".join(mismatches)


def test_acceptance_02_involution_invariants(catalog_findings):
    ok = True
    for name, (germ, findings) in catalog_findings.items():
        for f in findings:
            T = f.isometry
            if np.linalg.norm(T.compose(T).Q - np.eye(3)) >= 1e-10:
                ok = False
            if np.linalg.norm(T.compose(T).b) >= 1e-10:
                ok = False
    for name, label in (("cuspidal_edge", "ii"), ("swallowtail", "iii")):
        germ, findings = catalog_findings[name]
        f = next(x for x in findings if x.label == label)
        rep = connecting_involution(germ, f.isometry)
        if rep["involution_residual"] >= 1e-6:
            ok = False
    assert ok


def test_acceptance_03_connecting_map_example():
    f1 = PlaneMap(MapDef("f1", ("t",), ("t^6", "t^9"), {}),
                  Interval(-1.0, 1.0))
    f2 = PlaneMap(MapDef("f2", ("t",), ("t^2", "t^3"), {}),
                  Interval(-1.0, 1.0))
    psi = connecting_map(f1, f2)
    err = max(abs(np.asarray(psi(t)).item() - t ** 3)
              for t in np.linspace(-0.5, 0.5, 101))
    ok = err < 1e-6
    assert ok


def test_acceptance_04_normal_form_round_trip(round_trip_forms):
    ok = True
    for nf, nf2 in round_trip_forms:
        us = nf2.stations(129)
        if max(abs(nf2.theta(u) - nf.theta(u)) for u in us) >= 1e-6:
            ok = False
        for u in us:
            inv = nf2.invariants(u)
            if abs(inv["kappa_s"] - inv["kappa"]
                   * math.cos(inv["theta"])) >= 1e-8:
                ok = False
                break
    assert ok


def test_acceptance_05_invariant_identity(round_trip_forms):
    ok = True
    for nf, nf2 in round_trip_forms:
        for form in (nf, nf2):
            for u in form.stations(129):
                inv = form.invariants(u)
                if abs(inv["kappa_s"] ** 2 + inv["kappa_nu"] ** 2
                       - inv["kappa"] ** 2) >= 1e-10:
                    ok = False
    assert ok


def test_acceptance_06_dual_law():
    nf = edge(helix(1.0, 1.0, 1.5), ScalarProfile.from_expr(
        "0.3 + 0.1*sin(u)"))
    d = dual(nf)
    dd = dual(d)
    ok = True
    for u in nf.stations(129):
        a, b = nf.invariants(u), d.invariants(u)
        if abs(b["theta"] + a["theta"]) >= 1e-12:
            ok = False
        if abs(b["kappa_nu"] + a["kappa_nu"]) >= 1e-12:
            ok = False
        if abs(b["kappa_s"] - a["kappa_s"]) >= 1e-12:
            ok = False
        if abs(dd.theta(u) - nf.theta(u)) >= 1e-12:
            ok = False
    assert ok


def test_acceptance_07_inverse_law(wavy_edge):
    nf = edge(wavy_edge, 1.0)
    inv = inverse(nf)
    ok = True
    for u in nf.stations(65):
        kr = frenet(nf.crease, u).kappa / frenet(nf.crease, -u).kappa
        if abs(math.cos(inv.theta(u)) - kr * math.cos(nf.theta(u))) >= 1e-8:
            ok = False
        if nf.theta(-u) != 0 and nf.theta(-u) * inv.theta(u) <= 0:
            ok = False
    try:
        inverse(edge(wavy_edge, 0.2))
        ok = False
    except NotAdmissible:
        pass
    assert ok


def test_acceptance_08_ist_developability():
    circ = ist(edge(circle(1.0, 1.5), 0.3), halfwidth=0.15)
    hel = ist(edge(helix(1.0, 1.0, 1.5), ScalarProfile.from_expr(
        "0.3 + 0.1*sin(u)")), halfwidth=0.15)
    ok = True
    for strip in (circ, hel):
        us = strip.stations(33)
        for u in us[1:-1]:
            for v in np.linspace(-1.0, 1.0, 9) * strip.halfwidth * 0.9:
                if abs(gaussian_curvature(strip, u, v)) >= 1e-6:
                    ok = False
        for u in us:
            beta = strip.beta(u)
            if not 0.0 < beta < math.pi:
                ok = False
            fr = frenet(strip.crease, u)
            alpha = strip.alpha(u)
            ap = strip.alpha.deriv(u)
            resid = (math.cos(beta) * fr.kappa * math.sin(alpha)
                     - math.sin(beta) * (ap + fr.tau))
            if abs(resid) >= 1e-8:
                ok = False
        iso = strip_isomers(strip)
        worst = max(abs(iso["dual"].alpha(u)
                        - dual(strip.source_nf).theta(u))
                    for u in us)
        if worst >= 1e-10:
            ok = False
    assert ok


def test_acceptance_09_properness_verdicts():
    rep1 = properness_probe(
        np.vectorize(lambda x: x * math.exp(-x * x), otypes=[float]), 0.5)
    rep2 = properness_probe(
        np.vectorize(lambda x: x * math.sin(1.0 / x) if x != 0.0 else 0.0,
                     otypes=[float]), 0.0)

    def spliced(x):
        ax = abs(x)
        if ax <= 1.0:
            return 0.0
        if ax >= 2.0:
            return x
        return math.copysign(2.0 * (ax - 1.0), x)

    rep3 = properness_probe(np.vectorize(spliced, otypes=[float]), 0.0)
    ok = (rep1.verdict == "finite"
          and rep2.verdict == "suspected_infinite"
          and rep2.counts[-1] >= 64
          and rep3.verdict == "suspected_infinite")
    assert ok


def test_acceptance_10_limiting_normal_curvature():
    knu_ccr = limiting_normal_curvature(catalog("ccr_example"))
    knu_edge = limiting_normal_curvature(catalog("cuspidal_edge"))
    knu_ccc = limiting_normal_curvature(catalog("cuspidal_cross_cap"))
    ok = (abs(abs(knu_ccr) - 2.0) < 1e-8
          and abs(knu_edge) < 1e-10 and abs(knu_ccc) < 1e-10)
    assert ok


def test_acceptance_11_self_intersection_claims(catalog_findings):
    ok = True
    germ, findings = catalog_findings["swallowtail"]
    locus = self_intersections(germ)
    worst = max(abs(pt[0] + 2.0 * pt[1] ** 2)
                for pair in locus.pairs for pt in pair)
    if worst >= 1e-8:
        ok = False
    f = next(x for x in findings if x.label == "iii")
    rep = verify_c2(germ, f, locus, 1e-8, (0.0, 0.0))
    if not (rep["image_fixed"] and rep["fixed_points_only_base"]):
        ok = False
    if rep["image_fix_residual"] >= 1e-8:
        ok = False

    germ, findings = catalog_findings["cuspidal_cross_cap"]
    locus = self_intersections(germ)
    f = next(x for x in findings if x.label == "ii")
    rep = verify_c2(germ, f, locus, 1e-8, (0.0, 0.0))
    if rep.get("Pi1_offset", 1.0) >= 1e-8:
        ok = False
    if not rep["fixed_points_only_base"]:
        ok = False
    assert ok


def test_acceptance_12_congruence_table():
    rows = [
        (SymmetryPredicates(), (4, True)),
        (SymmetryPredicates(planar=True, curve_symmetry="negative"),
         (1, True)),
        (SymmetryPredicates(curve_symmetry="positive",
                            metric_symmetry="symmetry"), (1, True)),
    ]
    ok = all(congruence_count(p) == want for p, want in rows)
    for planar, cs, ms in itertools.product(
            (False, True), ("none", "positive", "negative"),
            ("none", "symmetry", "effective_symmetry")):
        count, exact = congruence_count(
            SymmetryPredicates(planar, cs, ms))
        trivial = not planar and cs == "none" and ms == "none"
        if trivial:
            continue
        if count > 2:
            ok = False
        if not exact and count != 2:
            ok = False
    assert ok


def test_acceptance_13_ms_parity():
    verdict_pos, finding_pos = ms_symmetry_check("u^2", "1", "u", "1")
    verdict_neg, finding_neg = ms_symmetry_check("u^2", "1", "u^2", "1")
    ok = (verdict_pos["all"] and finding_pos is not None
          and finding_pos.label == "ii"
          and not verdict_neg["all"] and finding_neg is None)
    assert ok
