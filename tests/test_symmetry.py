import numpy as np
import pytest

from closest_reference import one_point_closest
import frontalforge.match as ffmatch
import frontalforge.symmetry as ffsym
from frontalforge.exprlang import MapDef
from frontalforge.geom import LABEL_TO_CASE, Isometry, classify_isometry
from frontalforge.germ import catalog, distinguished_frame
from frontalforge.match import _sample_grid, closest_image_point
from frontalforge.symmetry import (EXPECTED_CATALOG_LABELS,
                                   connecting_involution,
                                   detect_symmetries,
                                   ms_symmetry_check, self_intersections,
                                   validate_findings, verify_c2)
from frontalforge.symmetry import _image_tree, _shrunken_domain


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
    assert EXPECTED_CATALOG_LABELS["swallowtail"] == {"iii"}
    assert EXPECTED_CATALOG_LABELS["cuspidal_cross_cap"] == {"i", "ii",
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


@pytest.mark.parametrize("name", ["cuspidal_cross_cap", "ccr_example"])
def test_self_intersections_on_the_closed_form_locus(name):
    # (v^2, uv^3, u) and (u, v^2, u^2 + uv^3) take equal values exactly at
    # q = (0, v) and q' = (0, -v)
    locus = self_intersections(catalog(name))
    assert len(locus.pairs) >= 10
    for (u, v), (u2, v2) in locus.pairs:
        assert abs(u) < 1e-12 and abs(u2) < 1e-12
        assert v2 == pytest.approx(-v, abs=1e-10)


@pytest.mark.parametrize("name", ["swallowtail", "cuspidal_cross_cap",
                                  "ccr_example"])
def test_self_intersection_images_run_along_the_oriented_axis(name):
    # the polyline axis has its largest-magnitude component positive, so a
    # rounding-level change cannot reverse the locus order
    images = self_intersections(catalog(name)).images
    ctr = images - images.mean(axis=0)
    axis = np.linalg.svd(ctr, full_matrices=False)[2][0]
    axis *= np.sign(axis[np.argmax(np.abs(axis))])
    assert np.all(np.diff(ctr @ axis) >= 0)


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


def test_bare_edge_involution_builds_one_normal_field(monkeypatch):
    # (v^2, v^3, u) without its analytic normal: every lift sample on
    # v = 0 takes the generic normal's exact limit there
    from frontalforge.geom import Isometry
    from frontalforge.germ import NormalField, SurfaceGerm
    built = []
    init = NormalField.__init__

    def counted(self, germ):
        built.append(germ)
        init(self, germ)

    monkeypatch.setattr(NormalField, "__init__", counted)
    # the singular rows of each NormalField.points call share one jet
    calls = {"jet": 0, "points": 0}
    jet, points = SurfaceGerm.jet, NormalField.points

    def counted_jet(self, *args):
        calls["jet"] += 1
        return jet(self, *args)

    def counted_points(self, X):
        calls["points"] += 1
        return points(self, X)

    monkeypatch.setattr(SurfaceGerm, "jet", counted_jet)
    monkeypatch.setattr(NormalField, "points", counted_points)
    g = catalog("cuspidal_edge")
    bare = SurfaceGerm(g.map, g.domain, name="bare_edge")
    rep = connecting_involution(bare, Isometry(np.diag([1.0, -1.0, 1.0])))
    assert built == [bare]
    assert 0 < calls["jet"] <= calls["points"]
    assert rep["sign"] == 1
    assert rep["involution_residual"] < 1e-12


def scalar_detect(germ, tol=1e-6):
    """The candidate x probe loop of `detect_symmetries`, one probe and one
    seed at a time: (label, case, Q, residual) per finding."""
    p = tuple(germ.base)
    frame = distinguished_frame(germ, p)
    tree, xs = _image_tree(germ)
    probes = _sample_grid(_shrunken_domain(germ, p), 121)
    out = []
    for label, T in frame.candidate_isometries().items():
        worst = 0.0
        for q in probes:
            target = T(germ(q))
            _, idxs = tree.query(target, k=4)
            best = np.inf
            for idx in idxs:
                best = min(best, one_point_closest(germ, germ.domain, target,
                                                   xs[idx])[0])
                if best < 1e-14:
                    break
            worst = max(worst, best)
            if worst > tol:
                break
        if worst < tol:
            case = LABEL_TO_CASE.get(label)
            if case is None:
                case = LABEL_TO_CASE.get(classify_isometry(T, frame), label)
            out.append((label, case, T.Q, worst))
    return out


def _signed(rng, lo, hi):
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _poly(terms):
    return " + ".join(f"({c!r})*" + "*".join(m) for c, m in terms)


def seeded_germs():
    """sw_example and ms_edge draws in the benchmark's ranges, and the two
    germs whose true symmetry the detector misses."""
    rng = np.random.default_rng(7)
    small = lambda: float(rng.uniform(-0.3, 0.3))
    germs = []
    for _ in range(3):
        germs.append(("sw_example", {"b": _signed(rng, 0.9, 1.5),
                                     "c": _signed(rng, 0.5, 1.5)}))
    for _ in range(3):
        germs.append(("ms_edge", {
            "a0": _poly([(small(), ["u^2"])]),
            "b0": f"({_signed(rng, 0.5, 1.0)!r}) + " + _poly([(small(), ["u^2"])]),
            "b2": _poly([(small(), ["u"]), (small(), ["u^3"])]),
            "b3": f"({_signed(rng, 0.5, 1.0)!r}) + "
                  + _poly([(small(), ["u^2"]), (small(), ["v"])]),
        }))
    germs.append(("sw_example", {"b": 0.6, "c": 0.6}))
    germs.append(("ms_edge", {"a0": "-0.308*u^2", "b0": "-1.443 - 0.336*u^2",
                              "b2": "0.302*u - 0.288*u^3",
                              "b3": "-1.363 - 0.443*u^2 - 0.119*v"}))
    return germs


@pytest.mark.parametrize("name, params", [(n, None) for n in (
    "cuspidal_edge", "swallowtail", "cuspidal_cross_cap", "ccr_example")]
    + seeded_germs())
def test_detect_symmetries_matches_scalar_loop(name, params):
    germ = catalog(name, **(params or {}))
    found = detect_symmetries(germ)
    ref = scalar_detect(germ)
    assert [(f.frame_label, f.label) for f in found] == \
        [(label, case) for label, case, _, _ in ref]
    for f, (_, _, Q, res) in zip(found, ref):
        assert np.array_equal(f.isometry.Q, Q)
        assert f.residual == pytest.approx(res, rel=0, abs=1e-12)


def test_detect_symmetries_polishes_on_the_grid_path(monkeypatch):
    calls = []
    call = MapDef.__call__

    def counted(self, *args, **kwargs):
        calls.append(1)
        return call(self, *args, **kwargs)

    monkeypatch.setattr(MapDef, "__call__", counted)
    assert cases(detect_symmetries(catalog("cuspidal_edge"))) == {"i", "ii",
                                                                   "iv"}
    # one float-path evaluation per probe or seed would be tens of thousands
    assert len(calls) < 200


def one_batch_detect(germ, n_probe=121, extra_candidates=None, tol=1e-6):
    """`detect_symmetries` before its two stages, every candidate x probe x
    seed row in one polish: (frame label, case, Q, residual) per finding."""
    p = tuple(germ.base)
    frame = distinguished_frame(germ, p)
    tree, xs = _image_tree(germ)
    F = germ.points(np.array(_sample_grid(_shrunken_domain(germ, p), n_probe)))
    cands = {**frame.candidate_isometries(), **(extra_candidates or {})}
    dist, _ = closest_image_point(germ, germ.domain, np.concatenate(
        [T(F) for T in cands.values()]), tree, xs)
    worst = dist.reshape(len(cands), len(F)).max(axis=1).tolist()
    return [(label, LABEL_TO_CASE.get(label) or LABEL_TO_CASE.get(
        classify_isometry(T, frame), label), T.Q, w)
        for (label, T), w in zip(cands.items(), worst) if w < tol]


def assert_same_findings(found, ref):
    assert [(f.frame_label, f.label) for f in found] == \
        [(label, case) for label, case, _, _ in ref]
    for f, (_, _, Q, res) in zip(found, ref):
        assert np.array_equal(f.isometry.Q, Q)
        assert f.residual == res


BRUTE = {"brute_x_flip": Isometry(np.diag([-1.0, 1.0, 1.0]))}


@pytest.mark.parametrize("name, params, extra", [(n, None, None) for n in (
    "cuspidal_edge", "swallowtail", "cuspidal_cross_cap", "ccr_example")]
    + [(n, p, None) for n, p in seeded_germs()]
    + [("cuspidal_edge", None, BRUTE)])
def test_staged_detection_equals_one_batch(name, params, extra):
    # rows of the solver evolve independently, so deciding on the corner
    # probes first changes no verdict and no residual bit
    germ = catalog(name, **(params or {}))
    assert_same_findings(detect_symmetries(germ, extra_candidates=extra),
                         one_batch_detect(germ, extra_candidates=extra))


def solver_rows(monkeypatch):
    rows = []
    solve = ffmatch.damped_gauss_newton

    def counted(fn, target, x0, *args, **kwargs):
        rows.append(len(x0))
        return solve(fn, target, x0, *args, **kwargs)

    monkeypatch.setattr(ffmatch, "damped_gauss_newton", counted)
    return rows


def test_detection_polishes_corners_first(monkeypatch):
    rows = solver_rows(monkeypatch)
    assert cases(detect_symmetries(catalog("swallowtail"))) == {"iii"}
    # 4 candidates x 4 corners x 4 seeds, then the 117 other probes of
    # the one candidate left standing (1,936 rows in one batch before)
    assert rows == [4 * 4 * 4, 117 * 4]


def test_detection_on_corner_probes_only(monkeypatch):
    germ = catalog("cuspidal_edge")
    rows = solver_rows(monkeypatch)
    found = detect_symmetries(germ, n_probe=4)
    assert rows == [4 * 4 * 4]
    assert_same_findings(found, one_batch_detect(germ, n_probe=4))


def test_detection_residual_is_worst_over_both_stages(monkeypatch):
    # on the catalog germs the worst probe is never a corner, so a fake
    # polish puts it there: corners at 5e-7, every other probe at 1e-8
    polished = []

    def fake(germ, domain, targets, tree, xs):
        polished.append(len(targets))
        dist = 5e-7 if len(polished) == 1 else 1e-8
        return np.full(len(targets), dist), None

    monkeypatch.setattr(ffsym, "closest_image_point", fake)
    found = detect_symmetries(catalog("cuspidal_edge"))
    assert polished == [4 * 4, 4 * 117]
    assert [f.residual for f in found] == [5e-7] * 4


def test_connecting_map_decides_the_sign_on_the_corners(monkeypatch):
    from frontalforge.numkit import Interval
    f1, f2 = (ffmatch.PlaneMap(MapDef(n, ("t",), comps), Interval(-1.0, 1.0))
              for n, comps in (("f1", ["0.49*t^2", "0.343*t^3"]),
                               ("f2", ["t^2", "t^3"])))
    rows = solver_rows(monkeypatch)
    assert ffmatch.connecting_map(f1, f2).sign == 1
    # both signs on the 2 ends of the 1-D sample grid, then the other 254
    # samples for the one sign left standing (1,024 rows for each sign
    # before); a successful map runs no image inclusion polish
    assert rows == [2 * 2 * 4, 254 * 4]


@pytest.mark.parametrize("name", ["cuspidal_edge", "swallowtail"])
def test_involution_polishes_the_losing_sign_on_corners_only(monkeypatch,
                                                             name):
    rows = solver_rows(monkeypatch)
    connecting_involution(catalog(name), Isometry(np.diag([1.0, -1.0, 1.0])))
    # both signs on the 4 corners of the 9 x 9 sample grid; the other 77
    # samples for the standing sign; then psi at psi(x) for every 5th
    # sample x (17 of them) and at the 6 orientation probes, in one call
    # (324 rows for each sign, then 68, 68 and 24 before)
    assert rows == [2 * 4 * 4, 77 * 4, (17 + 6) * 4]


def solver_row_steps(monkeypatch):
    steps = []
    solve = ffmatch.damped_gauss_newton

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        steps.append(int(out[2].sum()))
        return out

    monkeypatch.setattr(ffmatch, "damped_gauss_newton", counted)
    return steps


@pytest.mark.parametrize("case, before", [("plane", 12417),
                                          ("cuspidal_edge", 7870),
                                          ("swallowtail", 8324)])
def test_connecting_map_row_steps_are_halved(monkeypatch, case, before):
    # a converged lift row stops at the rounding floor of its target
    # instead of rejecting steps until its damping passes 1e6, and a
    # successful map runs no image inclusion polish: at most half the
    # solver row-steps of both (2,600, 1,830 and 1,559 at this writing)
    steps = solver_row_steps(monkeypatch)
    if case == "plane":
        from frontalforge.numkit import Interval
        f1, f2 = (ffmatch.PlaneMap(MapDef(n, ("t",), c), Interval(-1.0, 1.0))
                  for n, c in (("f1", ["0.49*t^2", "0.343*t^3"]),
                               ("f2", ["t^2", "t^3"])))
        assert ffmatch.connecting_map(f1, f2).residual_image < 1e-15
    else:
        report = connecting_involution(catalog(case),
                                       Isometry(np.diag([1.0, -1.0, 1.0])))
        assert report["residual_image"] < 1e-15
    assert sum(steps) <= before // 2


# ------------------------------------------------- batched fixed-point checks

def per_pair_verify_c2(germ, finding, locus, tol=1e-6, p=None):
    """The per-pair loop that `verify_c2` replaced: psi and the float path
    at one locus preimage at a time."""
    p = np.asarray(germ.base if p is None else p, float)
    fp = germ(tuple(p))
    T = finding.isometry
    report = {"vacuous": locus.empty, "image_fixed": True,
              "f_psi_matches": True, "fixed_points_only_base": True}
    if locus.empty:
        return report
    psi = connecting_involution(germ, T, tol=max(tol, 1e-6))["psi"]
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


@pytest.mark.parametrize("name", ["swallowtail", "cuspidal_cross_cap",
                                  "ccr_example"])
def test_verify_c2_equals_per_pair_loop(name):
    germ = catalog(name)
    locus = self_intersections(germ)
    assert not locus.empty
    for f in detect_symmetries(germ):
        for tol in (1e-6, 1e-8):
            rep = verify_c2(germ, f, locus, tol)
            assert rep == per_pair_verify_c2(germ, f, locus, tol), f.label
            assert all(type(v) in (bool, float) for v in rep.values())


def test_verify_c2_polishes_the_locus_in_one_call(monkeypatch, tail_findings):
    germ, findings = tail_findings
    refl = next(f for f in findings if f.label == "iii")
    locus = self_intersections(germ)
    rows = solver_rows(monkeypatch)
    connecting_involution(germ, refl.isometry)
    alone = list(rows)
    rows.clear()
    verify_c2(germ, refl, locus)
    assert rows == alone + [len(locus.pairs) * 4]


def per_point_parity(a0, b0, b2, b3):
    """The parity verdict of `ms_symmetry_check`, one float evaluation
    per function and point."""
    fns = [MapDef(s, ("u", "v"), [s]) for s in (a0, b0, b2, b3)]
    us = np.linspace(-0.4, 0.4, 9)
    vs = np.linspace(-0.3, 0.3, 7)

    def f(k, u, v=0.0):
        return float(fns[k]((float(u), float(v)))[0])

    verdict = {
        "a0_even": all(abs(f(0, u) - f(0, -u)) < 1e-8 for u in us),
        "b0_even": all(abs(f(1, u) - f(1, -u)) < 1e-8 for u in us),
        "b2_odd": all(abs(f(2, u) + f(2, -u)) < 1e-8 for u in us),
        "b3_u_even": all(abs(f(3, u, v) - f(3, -u, v)) < 1e-8
                         for u in us for v in vs),
    }
    verdict["all"] = all(verdict.values())
    verdict["kappa_nu_nonzero"] = abs(f(1, 0.0)) > 1e-8
    return verdict


@pytest.mark.parametrize("coeffs", [
    ("cos(u)", "1 + u^2", "u^3", "2 + u^2"),
    ("cos(u)", "1 + u^2", "u^2", "2 + u^2"),
    ("cos(u)", "0", "u^3", "2 + u^2"),
    ("u^2", "1", "u", "1"),
    ("sin(u)", "exp(u)", "u*cos(u)", "1 + u*v"),
])
def test_parity_verdict_equals_per_point_loop(coeffs):
    verdict, _ = ms_symmetry_check(*coeffs)
    assert verdict == per_point_parity(*coeffs)
    assert all(type(v) is bool for v in verdict.values())
