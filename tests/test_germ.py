import math

import numpy as np
import pytest

from frontalforge.germ import (NotAFrontal, NotSingular, area_density,
                               catalog, distinguished_frame,
                               first_fundamental_form,
                               limiting_normal_curvature, normal_field,
                               singular_curve)


def test_catalog_names_resolve():
    for name in ("cuspidal_edge", "swallowtail", "cuspidal_cross_cap",
                 "cross_cap", "ccr_example"):
        g = catalog(name)
        assert g.name == name


def test_cuspidal_edge_normal_and_density():
    g = catalog("cuspidal_edge")
    nu = normal_field(g)
    # unnormalized normal is (-3v, 2, 0)
    assert np.allclose(nu((0.0, 0.0)), [0.0, 1.0, 0.0], atol=1e-12)
    got = nu((0.0, 1.0))
    assert np.allclose(got, np.array([-3.0, 2.0, 0.0]) / math.sqrt(13.0),
                       atol=1e-12)
    lam = area_density(g)
    assert abs(lam((0.0, 0.0))) < 1e-12
    assert abs(lam((0.0, 1.0))) == pytest.approx(math.sqrt(13.0), abs=1e-10)


def test_cross_cap_is_not_frontal():
    g = catalog("cross_cap")
    with pytest.raises(NotAFrontal):
        normal_field(g)((0.0, 0.0))


def test_singular_curve_of_edge_is_v_axis():
    g = catalog("cuspidal_edge")
    comps = singular_curve(g)
    flat = [s for c in comps for s in c.samples]
    assert flat
    assert max(abs(s.point[1]) for s in flat) < 1e-10
    assert all(s.sing_type == "I" for s in flat)


def test_singular_curve_of_swallowtail_is_parabola():
    g = catalog("swallowtail")
    comps = singular_curve(g)
    flat = [s for c in comps for s in c.samples]
    assert flat
    worst = max(abs(s.point[0] + 6.0 * s.point[1] ** 2) for s in flat)
    assert worst < 1e-10


def test_limiting_normal_curvature_oracles():
    assert abs(limiting_normal_curvature(catalog("cuspidal_edge"))) < 1e-10
    assert abs(limiting_normal_curvature(catalog("cuspidal_cross_cap"))) < 1e-10
    assert limiting_normal_curvature(catalog("ccr_example")) == pytest.approx(
        2.0, abs=1e-8)


def test_distinguished_frame_edge():
    fr = distinguished_frame(catalog("cuspidal_edge"))
    assert np.allclose(fr.tangent, [0.0, 0.0, 1.0], atol=1e-10)
    assert np.allclose(fr.normal, [0.0, 1.0, 0.0], atol=1e-10)
    assert fr.cusp_direction is not None
    # the cusp opens along +x (the image is x = v^2 >= 0)
    assert fr.cusp_direction @ np.array([1.0, 0.0, 0.0]) > 0.9


def test_distinguished_frame_rejects_regular_point():
    g = catalog("cuspidal_edge")
    with pytest.raises(NotSingular):
        distinguished_frame(g, (0.0, 0.5))


def test_first_fundamental_form_degenerate_on_edge():
    g = catalog("cuspidal_edge")
    E, F, G = first_fundamental_form(g, (0.0, 0.0))
    assert E == pytest.approx(1.0)
    assert F == pytest.approx(0.0)
    assert G == pytest.approx(0.0)


def test_sw_example_normal_and_singular_set():
    g = catalog("sw_example", b=1.0, c=1.0)
    nu = normal_field(g)
    assert np.allclose(np.abs(nu((0.0, 0.0))), [0.0, 0.0, 1.0], atol=1e-12)
    comps = singular_curve(g)
    flat = [s for c in comps for s in c.samples]
    assert flat
    assert max(abs(s.point[0]) for s in flat) < 1e-10


def test_ms_edge_requires_nonzero_b3():
    with pytest.raises(Exception):
        catalog("ms_edge", a0="u^2", b0="1", b2="u", b3="u")


def test_normal_field_orthogonal_to_partials():
    for name in ("swallowtail", "cuspidal_cross_cap", "ccr_example"):
        g = catalog(name)
        nu = normal_field(g)
        for p in ((0.3, 0.2), (-0.4, 0.1), (0.0, 0.0)):
            j = g.jet(p, 1)
            n = nu(p)
            assert abs(n @ j.partial(1, 0)) < 1e-8
            assert abs(n @ j.partial(0, 1)) < 1e-8
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def test_trace_gamma_reports_non_convergence():
    # lambda = 2 + sin(v) has a nonzero gradient but no zero, so the
    # transverse Newton step cannot reach the singular curve
    from frontalforge.germ import NonConvergence, _trace_gamma
    germ = catalog("cuspidal_edge")
    lam = lambda q: 2.0 + math.sin(q[1])
    with pytest.raises(NonConvergence, match="cuspidal_edge.*lambda"):
        _trace_gamma(germ, lam, np.array([0.0, 0.0]), 1e-3)
