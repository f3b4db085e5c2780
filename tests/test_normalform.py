import math

import numpy as np
import pytest

from frontalforge.curve import circle, helix
from frontalforge.normalform import (EdgeNormalForm, NormalFormError,
                                     ScalarProfile, SurfaceProfile,
                                     from_normal_form, is_cuspidal_edge,
                                     sectional_cusp, to_normal_form)


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


def test_sectional_cusp_reads_off_theta(circle_nf):
    germ = from_normal_form(circle_nf)
    sc = sectional_cusp(germ, 0.25)
    assert sc.theta == pytest.approx(0.3, abs=1e-8)
    assert sc.a0 == pytest.approx(1.0, abs=1e-8)
    assert sc.b0 == pytest.approx(1.0, abs=1e-6)


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


def test_scalar_profile_deriv():
    p = ScalarProfile.from_expr("sin(2*u)")
    assert p.deriv(0.3) == pytest.approx(2 * math.cos(0.6), abs=1e-12)
    q = ScalarProfile.from_samples(np.linspace(-1, 1, 101),
                                   np.sin(2 * np.linspace(-1, 1, 101)))
    assert q.deriv(0.3) == pytest.approx(2 * math.cos(0.6), abs=1e-5)


def test_section_solve_reports_non_convergence(circle_nf):
    # no Newton iterate meets |F| < 0, so the solve must fail loudly
    # instead of keeping its last iterate
    germ = from_normal_form(circle_nf)
    with pytest.raises(NormalFormError,
                       match=r"u0=0\.25, v=.* did not converge .*\|F\| ="):
        sectional_cusp(germ, 0.25, nv=5, tol=0.0)
