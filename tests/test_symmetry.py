import re

import numpy as np
import pytest

from closest_reference import one_point_closest
import frontalforge.match as ffmatch
import frontalforge.symmetry as ffsym
from frontalforge.exprlang import MapDef
from frontalforge.geom import LABEL_TO_CASE, Isometry
from frontalforge.germ import (SurfaceGerm, area_density, catalog,
                               distinguished_frame)
from frontalforge.match import _sample_grid, closest_image_point
from frontalforge.symmetry import (EXPECTED_CATALOG_LABELS,
                                   SymmetryFinding, connecting_involution,
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


def frame_findings(germ, labels):
    """Findings of the frame candidates whose cases are in labels, as the
    detector would report them at the base point."""
    frame = distinguished_frame(germ, tuple(germ.base))
    return [SymmetryFinding(T, LABEL_TO_CASE[fl], fl, 0.0)
            for fl, T in frame.candidate_isometries().items()
            if LABEL_TO_CASE[fl] in labels]


def _bare_edge():
    g = catalog("cuspidal_edge")
    return SurfaceGerm(g.map, g.domain, name="bare_edge")


@pytest.mark.parametrize("make, labels, message, count", [
    (lambda: catalog("cuspidal_edge"), {"iii"},
     r"admits the conormal-plane reflection \(iii\)", 1),
    # kappa_nu = 1 != 0
    (lambda: catalog("ccr_example"), {"i", "ii", "iv"},
     r"limiting normal curvature .* is nonzero, so only the normal-plane "
     r"reflection \(ii\) is allowed; found \['i', 'ii', 'iv'\]", 1),
    (lambda: catalog("swallowtail"), {"i"},
     r"swallowtail findings must be exactly \{'iii'\} or empty; found "
     r"\['i'\]", 1),
    (_bare_edge, {"ii"}, r"unsupported singularity type None", 1),
    # (i) after (ii) and (ii) after (i) are the half-turn (iv)
    (lambda: catalog("cuspidal_edge"), {"i", "ii"},
     r"symmetries not closed under composition: \((i|ii)\) after "
     r"\((i|ii)\)", 2),
], ids=["iii_on_edge", "kappa_nu", "swallowtail", "no_type", "closure"])
def test_validate_findings_reports_each_rule(make, labels, message, count):
    germ = make()
    failures = validate_findings(germ, frame_findings(germ, labels))
    assert len(failures) == count, failures
    assert all(re.search(message, m) for m in failures), failures


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


def curve_walk(germ, psi, s=1e-3):
    """Whether psi keeps the direction of travel along the singular curve
    at the base point: psi at base +- s t, for t the curve's unit tangent
    (grad lambda by central differences, turned by 90 degrees)."""
    b = np.asarray(germ.base, float)
    h = 1e-6
    lam = area_density(germ).grid(b[0] + np.array([h, -h, 0.0, 0.0]),
                                  b[1] + np.array([0.0, 0.0, h, -h]))
    t = np.array([lam[3] - lam[2], lam[0] - lam[1]])
    t /= np.linalg.norm(t)
    ahead, behind = psi(np.array([b + s * t, b - s * t]))
    return "preserved" if (ahead - behind) @ t > 0 else "reversed"


@pytest.mark.parametrize("name", ["cuspidal_edge", "swallowtail",
                                  "cuspidal_cross_cap"])
def test_involution_orientation_follows_the_normal_sign(name):
    # psi is linear on these germs, (u, v) -> (+-u, +-v), so det Dpsi is
    # +-1 exactly; at a swallowtail point the singular curve runs along v
    germ = catalog(name)
    for f in detect_symmetries(germ):
        rep = connecting_involution(germ, f.isometry)
        assert abs(abs(rep["jacobian_det"]) - 1.0) <= 1e-12, f.label
        assert rep["singular_curve_direction"] == curve_walk(
            germ, rep["psi"]), f.label


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
            out.append((label, LABEL_TO_CASE[label], T.Q, worst))
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


def one_batch_detect(germ, p=None, tol=1e-6):
    """`detect_symmetries` without its net drop, every candidate x probe x
    seed row in one polish: (frame label, case, Q, residual) per
    candidate."""
    p = tuple(germ.base) if p is None else p
    frame = distinguished_frame(germ, p)
    tree, xs = _image_tree(germ)
    F = germ.points(np.array(_sample_grid(_shrunken_domain(germ, p), 121)))
    cands = frame.candidate_isometries()
    dist, _ = closest_image_point(germ, germ.domain, np.stack(
        [T(F) for T in cands.values()]), tree, xs)
    return [(label, LABEL_TO_CASE[label], T.Q, w)
            for (label, T), w in zip(cands.items(), dist.max(axis=1))]


def assert_same_findings(found, ref, tol=1e-6):
    ref = [r for r in ref if r[3] < tol]
    assert [(f.frame_label, f.label) for f in found] == \
        [(label, case) for label, case, _, _ in ref]
    for f, (_, _, Q, res) in zip(found, ref):
        assert np.array_equal(f.isometry.Q, Q)
        assert f.residual == res


# p None is the base point; (0.3, 0) is a cuspidal edge point off it
@pytest.mark.parametrize("name, params, p", [(n, None, None) for n in (
    "cuspidal_edge", "swallowtail", "cuspidal_cross_cap", "ccr_example")]
    + [(n, p, None) for n, p in seeded_germs()]
    + [("cuspidal_edge", None, (0.3, 0.0))])
def test_staged_detection_equals_one_batch(name, params, p):
    # rows of the solver evolve independently, so dropping candidates at
    # seeding changes no verdict and no residual bit
    germ = catalog(name, **(params or {}))
    assert_same_findings(detect_symmetries(germ, p), one_batch_detect(germ, p))


def bench_draws(monkeypatch):
    """The benchmark's workloads module, for its parameter draws."""
    import importlib
    from pathlib import Path
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "bench"))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["cuspidal_edge", "swallowtail",
                                  "cuspidal_cross_cap", "ccr_example",
                                  "sw_example", "ms_edge"])
def test_net_drop_takes_every_non_finding(monkeypatch, name):
    # a candidate dropped at seeding never reaches tol when polished on
    # every probe, and every candidate that does not reach tol is dropped
    # from its corners alone (one global net radius kept the swallowtail's
    # refl_Pi1, and that of 3 of these 6 sw_example draws)
    wl = bench_draws(monkeypatch)
    rng = np.random.default_rng(7)
    if name in ("sw_example", "ms_edge"):
        draw = getattr(wl, "draw_" + name)
        germs = [wl.catalog_germ(name, draw(rng)) for _ in range(6)]
    else:
        germs = [catalog(name)]
    closest = ffsym.closest_image_point
    seen = []

    def spy(*args, **kwargs):
        seen.append(closest(*args, **kwargs)[0])
        return seen[-1], None

    monkeypatch.setattr(ffsym, "closest_image_point", spy)
    for germ in germs:
        found = detect_symmetries(germ)
        ref = one_batch_detect(germ)
        dropped = np.isinf(seen.pop()).any(axis=1)
        assert dropped.tolist() == [w >= 1e-6 for _, _, _, w in ref]
        assert_same_findings(found, ref)


def solver_rows(monkeypatch):
    rows = []
    solve = ffmatch.damped_gauss_newton

    def counted(fn, target, x0, *args, **kwargs):
        rows.append(len(x0))
        return solve(fn, target, x0, *args, **kwargs)

    monkeypatch.setattr(ffmatch, "damped_gauss_newton", counted)
    return rows


def solver_calls(monkeypatch):
    """Per solver call in match, its rows, and the fn evaluations and
    row-steps it made."""
    calls = []
    solve = ffmatch.damped_gauss_newton

    def counted(fn, target, x0, *args, **kwargs):
        call = {"rows": len(x0), "evals": 0}
        calls.append(call)

        def evaluated(X):
            call["evals"] += 1
            return fn(X)

        out = solve(evaluated, target, x0, *args, **kwargs)
        call["steps"] = int(out[2].sum())
        return out

    monkeypatch.setattr(ffmatch, "damped_gauss_newton", counted)
    return calls


def test_detection_drops_losers_at_seeding(monkeypatch):
    calls = solver_calls(monkeypatch)
    assert cases(detect_symmetries(catalog("swallowtail"))) == {"iii"}
    # one solve: 3 of the 4 candidates have a corner that the image
    # samples show to lie farther than 2 tol from the image, and never
    # enter it; the fourth brings its 121 probes, 4 seeds each (2 x 4 x 4
    # corner rows, then 117 x 4 admitted rows, before)
    assert [c["rows"] for c in calls] == [121 * 4]
    assert calls[0]["evals"] <= 31


def test_detection_on_corner_probes_only(monkeypatch):
    # the polish when every sample is a corner, as in a connecting map on
    # a 2 x 2 grid: the losing sign is dropped at seeding
    germ = catalog("cuspidal_edge")
    calls = solver_calls(monkeypatch)
    cm = ffmatch.connecting_map(ffsym._TransformedGerm(
        germ, Isometry(np.diag([1.0, -1.0, 1.0]))), germ, n1=4, n2=4096)
    assert [c["rows"] for c in calls] == [1 * 4 * 4]
    # f(u, -v) = Q f(u, v) and nu(u, -v) = det(Q) Q nu(u, v) for
    # Q = diag(1, -1, 1): e = +1
    np.testing.assert_allclose(cm.samples_out, cm.samples_in * [1.0, -1.0],
                               rtol=0, atol=1e-12)
    assert cm.sign == 1


def test_detection_residual_is_worst_over_both_stages(monkeypatch):
    # a candidate's residual is the worst over its corner probes and its
    # other probes; on the catalog germs the worst probe is never a
    # corner, so a fake polish puts it there: corners at 5e-7, every
    # other probe at 1e-8
    polished = []

    def fake(germ, domain, targets, tree, xs, corner=None, tol=0.0):
        polished.append((targets.shape, int(corner.sum())))
        return np.where(corner, 5e-7, 1e-8) * np.ones(targets.shape[:2]), None

    monkeypatch.setattr(ffsym, "closest_image_point", fake)
    found = detect_symmetries(catalog("cuspidal_edge"))
    assert polished == [((4, 121, 3), 4)]
    assert [f.residual for f in found] == [5e-7] * 4


@pytest.mark.parametrize("name", ["cuspidal_edge", "swallowtail",
                                  "cuspidal_cross_cap", "ccr_example"])
def test_detection_stages_overlap(monkeypatch, name):
    # the corner probes and the other probes run in one solve from step
    # 0: one initial evaluation and at most 30 steps (34 evaluations when
    # the other probes joined the running solve once their candidate was
    # decided, 62 in two calls before that)
    calls = solver_calls(monkeypatch)
    detect_symmetries(catalog(name))
    assert len(calls) == 1 and calls[0]["evals"] <= 31


def test_connecting_map_decides_the_sign_on_the_corners(monkeypatch):
    from frontalforge.numkit import Interval
    f1, f2 = (ffmatch.PlaneMap(MapDef(n, ("t",), comps), Interval(-1.0, 1.0))
              for n, comps in (("f1", ["0.49*t^2", "0.343*t^3"]),
                               ("f2", ["t^2", "t^3"])))
    calls = solver_calls(monkeypatch)
    assert ffmatch.connecting_map(f1, f2).sign == 1
    # the losing sign has an end that the lift samples show to lie
    # farther than 2 tol from the lift of f2, and is dropped at seeding;
    # the standing sign's 256 samples, 4 seeds each, are one solve (the
    # 254 other samples joined its 2 x 4 end rows, in 6 evaluations,
    # before); a successful map runs no image inclusion polish
    assert [c["rows"] for c in calls] == [256 * 4]
    assert calls[0]["evals"] <= 4


@pytest.mark.parametrize("name", ["cuspidal_edge", "swallowtail"])
def test_involution_drops_the_losing_sign_at_seeding(monkeypatch, name):
    calls = solver_calls(monkeypatch)
    connecting_involution(catalog(name), Isometry(np.diag([1.0, -1.0, 1.0])))
    # the losing sign has a corner of the 9 x 9 sample grid that the lift
    # samples show to lie farther than 2 tol from the lift, and never
    # enters the solve; the standing sign's 81 samples are one solve; then
    # psi at psi(x) for every 5th sample x (17 of them) and at the
    # orientation point, in a call of their own
    assert [c["rows"] for c in calls] == [81 * 4, (17 + 1) * 4]
    # 12 evaluations when the 77 other samples joined the corner solve
    assert sum(c["evals"] for c in calls) <= 10


@pytest.mark.parametrize("case, before", [("plane", 12417),
                                          ("cuspidal_edge", 7870),
                                          ("swallowtail", 8324)])
def test_connecting_map_row_steps_are_halved(monkeypatch, case, before):
    # a converged lift row stops at the rounding floor of its target
    # instead of rejecting steps until its damping passes 1e6, and a
    # successful map runs no image inclusion polish: at most half the
    # solver row-steps of both (2,600, 1,830 and 1,559 at this writing)
    calls = solver_calls(monkeypatch)
    if case == "plane":
        from frontalforge.numkit import Interval
        f1, f2 = (ffmatch.PlaneMap(MapDef(n, ("t",), c), Interval(-1.0, 1.0))
                  for n, c in (("f1", ["0.49*t^2", "0.343*t^3"]),
                               ("f2", ["t^2", "t^3"])))
        assert ffmatch.connecting_map(f1, f2).residual_image < 1e-15
        n1 = 256
    else:
        report = connecting_involution(catalog(case),
                                       Isometry(np.diag([1.0, -1.0, 1.0])))
        assert report["residual_image"] < 1e-15
        n1 = 81
    # the spy saw the one lift polish of every sample of the standing sign
    assert calls[0]["rows"] == n1 * 4
    assert sum(c["steps"] for c in calls) <= before // 2


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
        y = psi.solver(np.asarray(q, float)[None])[0][0]
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
            # psi lands some of ccr_example's locus preimages on the wrong
            # sheet, which the report scores without raising
            assert rep["f_psi_matches"] == (name != "ccr_example")


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
