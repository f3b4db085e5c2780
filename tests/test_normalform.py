import math

import numpy as np
import pytest

from section_reference import reference_sections

from frontalforge.curve import VanishingCurvature, circle, helix
from frontalforge.exprlang import MapDef
from frontalforge.germ import SurfaceGerm, catalog
from frontalforge.normalform import (EdgeNormalForm, NormalFormError,
                                     ScalarProfile, SurfaceProfile,
                                     _solve_sections, _station,
                                     from_normal_form, is_cuspidal_edge,
                                     to_normal_form)


def make_nf(crease, theta):
    one = SurfaceProfile.constant(1.0)
    th = theta if isinstance(theta, ScalarProfile) else \
        ScalarProfile.constant(theta)
    return EdgeNormalForm(crease, th, one, one)


@pytest.fixture(scope="module")
def circle_nf():
    return make_nf(circle(1.0, 2.0), 0.3)


@pytest.fixture(scope="module")
def helix_nf():
    return make_nf(helix(1.0, 1.0, 2.0),
                   ScalarProfile.from_expr("0.3 + 0.1*sin(u)"))


def test_invariants_identity(circle_nf, helix_nf):
    for nf in (circle_nf, helix_nf):
        for u in nf.stations(65):
            inv = nf.invariants(u)
            assert (inv["kappa_s"] ** 2 + inv["kappa_nu"] ** 2
                    - inv["kappa"] ** 2) == pytest.approx(0.0, abs=1e-12)


def test_is_cuspidal_edge(circle_nf):
    assert is_cuspidal_edge(circle_nf)
    zero_b = EdgeNormalForm(circle(1.0, 2.0), ScalarProfile.constant(0.3),
                            SurfaceProfile.constant(1.0),
                            SurfaceProfile.constant(0.0))
    assert not is_cuspidal_edge(zero_b)


def test_round_trip_circle(circle_nf):
    germ = from_normal_form(circle_nf)
    nf2 = to_normal_form(germ, n_stations=17, nv=17)
    worst_th = max(abs(nf2.theta(u) - 0.3) for u in nf2.stations(17))
    assert worst_th < 1e-8
    worst_a = max(abs(nf2.a(u, v) - 1.0) for u in nf2.stations(9)
                  for v in np.linspace(-0.1, 0.1, 5))
    assert worst_a < 1e-6


def test_round_trip_helix(helix_nf):
    germ = from_normal_form(helix_nf)
    nf2 = to_normal_form(germ, n_stations=17, nv=17)
    worst = max(abs(nf2.theta(u) - helix_nf.theta(u))
                for u in nf2.stations(17))
    assert worst < 1e-8


def test_evaluate_on_crease(circle_nf):
    for u in (-0.5, 0.0, 0.7):
        assert np.allclose(circle_nf.evaluate(u, 0.0),
                           circle_nf.crease(u), atol=1e-14)


def test_json_round_trip(helix_nf):
    nf2 = EdgeNormalForm.from_json(helix_nf.to_json())
    for u in (-0.5, 0.2):
        assert nf2.theta(u) == pytest.approx(helix_nf.theta(u), abs=1e-12)
        for v in (-0.1, 0.05):
            assert np.allclose(nf2.evaluate(u, v),
                               helix_nf.evaluate(u, v), atol=1e-10)


def test_negated_profile_keeps_its_sign_through_json():
    p = ScalarProfile.from_expr("u^2").negated()
    q = ScalarProfile.from_json(p.to_json())
    assert p(0.5) == q(0.5) == -0.25


def test_scalar_profile_deriv():
    p = ScalarProfile.from_expr("sin(2*u)")
    assert p.deriv(0.3) == pytest.approx(2 * math.cos(0.6), abs=1e-12)
    q = ScalarProfile.from_samples(np.linspace(-1, 1, 101),
                                   np.sin(2 * np.linspace(-1, 1, 101)))
    assert q.deriv(0.3) == pytest.approx(2 * math.cos(0.6), abs=1e-5)


def test_from_normal_form_names_the_ingredients_not_expressions(circle_nf):
    sampled = to_normal_form(from_normal_form(circle_nf), n_stations=9, nv=5)
    with pytest.raises(NormalFormError,
                       match="not expressions: crease, theta, a, b$"):
        from_normal_form(sampled)
    one_grid = EdgeNormalForm(circle_nf.crease, circle_nf.theta, sampled.a,
                              circle_nf.b)
    with pytest.raises(NormalFormError, match="not expressions: a$"):
        from_normal_form(one_grid)
    # the inverse isomer fixes only the crease and the cuspidal angle
    from frontalforge.isomer import inverse
    with pytest.raises(NormalFormError, match="not expressions: theta, a, b$"):
        from_normal_form(inverse(circle_nf))


def test_section_solve_reports_non_convergence(circle_nf):
    # no Newton iterate meets |F| < 0, so the solve must fail loudly
    # instead of keeping its last iterate
    germ = from_normal_form(circle_nf)
    fr = _station(germ, np.array([0.25]))[0]
    with pytest.raises(NormalFormError,
                       match=r"u0=0\.25, v=.* did not converge .*\|F\| ="):
        _solve_sections(germ, fr, np.linspace(-0.1, 0.1, 5), 0.0)


def _signed(rng, lo, hi):
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def _poly(terms):
    return " + ".join(f"({c!r})*" + "*".join(m) for c, m in terms)


def ms_edge_draws(n):
    """ms_edge coefficients in the benchmark's ranges, drawn with a seed."""
    rng = np.random.default_rng(7)
    small = lambda: float(rng.uniform(-0.3, 0.3))
    return [{
        "a0": _poly([(small(), ["u^2"])]),
        "b0": f"({_signed(rng, 0.5, 1.0)!r}) + " + _poly([(small(), ["u^2"])]),
        "b2": _poly([(small(), ["u"]), (small(), ["u^3"])]),
        "b3": f"({_signed(rng, 0.5, 1.0)!r}) + "
              + _poly([(small(), ["u^2"]), (small(), ["v"])]),
    } for _ in range(n)]


EXTRACTION_GERMS = [
    lambda: from_normal_form(make_nf(circle(1.0, 2.0), 0.3)),
    lambda: from_normal_form(make_nf(
        helix(1.0, 1.0, 2.0), ScalarProfile.from_expr("0.3 + 0.1*sin(u)"))),
] + [lambda p=p: catalog("ms_edge", **p) for p in ms_edge_draws(3)]


@pytest.mark.parametrize("make", EXTRACTION_GERMS)
def test_to_normal_form_matches_per_sample_solve(make):
    germ = make()
    nf = to_normal_form(germ, n_stations=5, nv=17)
    us, vs, a = nf.a.grid
    thetas, _, sigma = reference_sections(germ, us, vs)
    np.testing.assert_allclose(nf.theta_samples, np.unwrap(thetas), rtol=0,
                               atol=1e-12)
    # the section in the cusp's own axes is (a v^2, b v^3)
    c, s = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    x = sigma[..., 0] * c - sigma[..., 1] * s
    y = sigma[..., 0] * s + sigma[..., 1] * c
    np.testing.assert_allclose(a * vs ** 2, x, rtol=0, atol=1e-10)
    np.testing.assert_allclose(nf.b.grid[2] * vs ** 3, y, rtol=0, atol=1e-10)


@pytest.mark.parametrize("make", EXTRACTION_GERMS)
def test_sectional_cusp_matches_per_sample_solve(make):
    germ = make()
    vs = np.linspace(-0.98, 0.98, 17) * germ.domain[1].hi
    for u0 in (-0.5, 0.25):
        fr = _station(germ, np.array([u0]))[0]
        (A,), (sigma,) = _solve_sections(germ, fr, vs, 1e-12)
        _, A_ref, sigma_ref = reference_sections(germ, [u0], vs)
        np.testing.assert_allclose(A, A_ref[0], rtol=0, atol=1e-10)
        np.testing.assert_allclose(sigma, sigma_ref[0], rtol=0, atol=1e-10)


def test_to_normal_form_takes_one_jet_per_station(monkeypatch, helix_nf):
    germ = from_normal_form(helix_nf)
    orders = []
    jet = SurfaceGerm.jet

    def counted(self, point, order=3):
        orders.append(order)
        return jet(self, point, order)

    monkeypatch.setattr(SurfaceGerm, "jet", counted)
    # one jet over all the stations, however many there are
    for n in (3, 7):
        orders.clear()
        to_normal_form(germ, n_stations=n, nv=3)
        assert orders == [3]


def test_extraction_needs_an_odd_section_count():
    # the middle section sample is v = 0 only for an odd nv
    nf = EdgeNormalForm(circle(1.0, 2.0), ScalarProfile.constant(0.3),
                        SurfaceProfile.from_expr("1 + v"),
                        SurfaceProfile.constant(1.0))
    germ = from_normal_form(nf)
    with pytest.raises(NormalFormError, match="nv = 4"):
        to_normal_form(germ, n_stations=3, nv=4)
    nf2 = to_normal_form(germ, n_stations=3, nv=5)
    _, vs, a_grid = nf2.a.grid
    np.testing.assert_allclose(a_grid, np.broadcast_to(1 + vs, (3, 5)),
                               rtol=0, atol=1e-8)


def test_extraction_needs_the_singular_set_on_the_v_axis():
    with pytest.raises(NormalFormError, match="co-rank-one"):
        to_normal_form(catalog("swallowtail"))


def test_extraction_needs_a_regular_edge_image():
    # the edge image (u^3, 0, 0) stops at u = 0
    germ = SurfaceGerm(MapDef("stalled", ("u", "v"), ["u^3", "v^2", "v^3"]),
                       ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(VanishingCurvature, match="not regular"):
        to_normal_form(germ)
