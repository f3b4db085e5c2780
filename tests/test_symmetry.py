import numpy as np
import pytest

from frontalforge.germ import catalog
from frontalforge.symmetry import (EXPECTED_CATALOG_LABELS,
                                   connecting_involution,
                                   detect_symmetries,
                                   expected_catalog_labels,
                                   ms_symmetry_check, self_intersections,
                                   validate_findings, verify_c2)


@pytest.fixture(scope="module")
def edge_findings():
    germ = catalog("cuspidal_edge")
    return germ, detect_symmetries(germ)


@pytest.fixture(scope="module")
def tail_findings():
    germ = catalog("swallowtail")
    return germ, detect_symmetries(germ)


def cases(findings):
    return {f.label for f in findings}


def test_edge_labels(edge_findings):
    germ, findings = edge_findings
    assert cases(findings) == {"i", "ii", "iv"}
    assert validate_findings(germ, findings, (0.0, 0.0)) == []


def test_swallowtail_labels(tail_findings):
    germ, findings = tail_findings
    assert cases(findings) == {"iii"}
    assert validate_findings(germ, findings, (0.0, 0.0)) == []


def test_ccr_labels():
    germ = catalog("ccr_example")
    findings = detect_symmetries(germ)
    assert cases(findings) == {"ii"}
    assert validate_findings(germ, findings, (0.0, 0.0)) == []


def test_cuspidal_cross_cap_detects_rotation():
    # diag(1,-1,-1) maps the image to itself via (u,v) -> (-u,v), so the
    # half-turn case iv is present alongside the two reflections
    germ = catalog("cuspidal_cross_cap")
    found = cases(detect_symmetries(germ))
    assert {"i", "ii"} <= found
    assert "iv" in found


def test_expected_catalog_labels():
    assert expected_catalog_labels("swallowtail") == {"iii"}
    assert expected_catalog_labels("cuspidal_cross_cap") == {"i", "ii",
                                                             "iv"}
    assert EXPECTED_CATALOG_LABELS["cuspidal_edge"] == {"i", "ii", "iv"}


def test_edge_involution(edge_findings):
    germ, findings = edge_findings
    refl = next(f for f in findings if f.label == "ii")
    rep = connecting_involution(germ, refl.isometry)
    assert rep["involution_residual"] < 1e-8
    # psi = (-u, v): orientation-reversing on the domain
    assert rep["jacobian_det"] < 0
    assert rep["orientation"] == "reversing"
    psi = rep["psi"]
    for q in ((0.2, 0.1), (-0.3, 0.05)):
        out = np.asarray(psi(q), dtype=float).ravel()
        assert np.allclose(out, (-q[0], q[1]), atol=1e-8)


def test_swallowtail_involution(tail_findings):
    germ, findings = tail_findings
    refl = next(f for f in findings if f.label == "iii")
    rep = connecting_involution(germ, refl.isometry)
    psi = rep["psi"]
    for q in ((0.05, 0.1), (0.02, -0.15)):
        out = np.asarray(psi(q), dtype=float).ravel()
        assert np.allclose(out, (q[0], -q[1]), atol=1e-7)


def test_self_intersections_swallowtail():
    germ = catalog("swallowtail")
    locus = self_intersections(germ)
    assert len(locus.pairs) > 5
    # the double-point locus of this model lies on u = -2 v^2
    worst = max(abs(pt[0] + 2.0 * pt[1] ** 2)
                for pair in locus.pairs for pt in pair)
    assert worst < 1e-8


def test_self_intersections_empty_for_edge():
    germ = catalog("cuspidal_edge")
    locus = self_intersections(germ)
    assert len(locus.pairs) == 0


def test_verify_c2_swallowtail(tail_findings):
    germ, findings = tail_findings
    refl = next(f for f in findings if f.label == "iii")
    locus = self_intersections(germ)
    rep = verify_c2(germ, refl, locus, 1e-6, (0.0, 0.0))
    assert rep["image_fixed"] and rep["f_psi_matches"]
    assert not rep["vacuous"]


def test_verify_c2_vacuous_for_edge(edge_findings):
    germ, findings = edge_findings
    refl = next(f for f in findings if f.label == "ii")
    locus = self_intersections(germ)
    rep = verify_c2(germ, refl, locus, 1e-6, (0.0, 0.0))
    assert rep["vacuous"]


def test_ms_symmetry_positive():
    verdict, finding = ms_symmetry_check("cos(u)", "1 + u^2", "u^3", "2 + u^2")
    assert verdict["all"]
    assert verdict["kappa_nu_nonzero"]
    assert finding is not None and finding.label == "ii"
    Q = finding.isometry.Q
    assert np.allclose(Q, np.diag([-1.0, 1.0, 1.0]))


def test_ms_symmetry_parity_failure():
    verdict, finding = ms_symmetry_check("cos(u)", "1 + u^2", "u^2",
                                         "2 + u^2")
    assert not verdict["b2_odd"] and not verdict["all"]
    assert finding is None


def test_ms_symmetry_degenerate_normal_curvature():
    verdict, _ = ms_symmetry_check("cos(u)", "0", "u^3", "2 + u^2")
    assert not verdict["kappa_nu_nonzero"]


def test_validate_findings_requires_closure(edge_findings, tail_findings):
    ccc = catalog("cuspidal_cross_cap")
    found = detect_symmetries(ccc)
    partial = [f for f in found if f.label != "iv"]
    assert cases(partial) == {"i", "ii"}
    failures = validate_findings(ccc, partial)
    assert any("not closed under composition" in m for m in failures)
    assert validate_findings(ccc, found) == []
    real = [edge_findings, tail_findings, (ccc, found)]
    real += [(g, detect_symmetries(g)) for g in (
        catalog("ccr_example"), catalog("sw_example"), catalog("ms_edge"))]
    for germ, findings in real:
        assert findings, germ.name
        assert validate_findings(germ, findings) == [], germ.name


def test_ccr_involution_crosses_the_sheets():
    # along u = 0 the two sheets f(0, v) = f(0, -v) have normals only
    # about 2|v|^3 apart; seeding from one lift sample strands the polish
    # on the wrong sheet there
    from frontalforge.geom import Isometry
    rep = connecting_involution(catalog("ccr_example"),
                                Isometry(np.diag([-1.0, 1.0, 1.0])))
    assert rep["sign"] == -1
    psi = rep["psi"]
    x = np.array(psi.samples_in)
    np.testing.assert_allclose(psi.samples_out, -x, rtol=0, atol=5e-7)
