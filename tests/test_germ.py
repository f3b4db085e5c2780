import math
import subprocess
import sys

import numpy as np
import pytest

from frontalforge import germ as germ_module
from frontalforge.exprlang import MapDef
from frontalforge.germ import (DegenerateSingularity, NormalField,
                               NotAFrontal, NotSingular, SurfaceGerm,
                               _lambda_gradient, area_density, catalog,
                               distinguished_frame,
                               limiting_normal_curvature, singular_curve)


def test_catalog_names_resolve():
    for name in ("cuspidal_edge", "swallowtail", "cuspidal_cross_cap",
                 "cross_cap", "ccr_example"):
        g = catalog(name)
        assert g.name == name


def test_germ_rejects_a_map_that_is_not_an_expression():
    from frontalforge.germ import GermError
    with pytest.raises(GermError, match="needs an expression map, not function"):
        SurfaceGerm(lambda p: np.array([p[0], p[1] ** 2, p[1] ** 3]),
                    ((-1, 1), (-1, 1)), name="lam")


def test_cuspidal_edge_normal_and_density():
    g = catalog("cuspidal_edge")
    nu = g.normal_field
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
        g.normal_field((0.0, 0.0))


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


def test_limiting_normal_curvature_of_ms_edge_is_exact():
    # f = (u, v^2, u^2 + v^3): gamma = (u, 0), f o gamma = (u, 0, u^2) and
    # nu = (-2u, 0, 1) / sqrt(1 + 4u^2) on it
    g = catalog("ms_edge")
    for u in (-0.5, -0.2, 0.0, 0.3, 0.6, 0.9):
        assert limiting_normal_curvature(g, (u, 0.0)) == pytest.approx(
            2.0 / (1.0 + 4.0 * u * u) ** 1.5, rel=0, abs=1e-14)


def test_limiting_normal_curvature_takes_one_order_2_jet(monkeypatch):
    orders = []
    jet = SurfaceGerm.jet

    def counted(self, point, order=3):
        orders.append(order)
        return jet(self, point, order)

    def no_solve(*args, **kwargs):
        raise AssertionError("limiting_normal_curvature called the solver")

    monkeypatch.setattr(SurfaceGerm, "jet", counted)
    monkeypatch.setattr(germ_module, "damped_gauss_newton", no_solve)
    assert limiting_normal_curvature(catalog("cuspidal_edge")) == 0.0
    assert orders == [2]


def test_limiting_normal_curvature_rejects_type_ii_base():
    # the swallowtail point of sw_example is type II, with or without the
    # analytic normal: the singular image is not regular there
    g = catalog("sw_example")
    for germ in (g, SurfaceGerm(g.map, g.domain, name="bare_sw_example")):
        with pytest.raises(DegenerateSingularity, match="type II"):
            limiting_normal_curvature(germ)


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


def test_sw_example_normal_and_singular_set():
    g = catalog("sw_example", b=1.0, c=1.0)
    nu = g.normal_field
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
        nu = g.normal_field
        for p in ((0.3, 0.2), (-0.4, 0.1), (0.0, 0.0)):
            j = g.jet(p, 1)
            n = nu(p)
            assert abs(n @ j.partial(1, 0)) < 1e-8
            assert abs(n @ j.partial(0, 1)) < 1e-8
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)


def bare_cuspidal_edge():
    # the catalog's cuspidal edge (v^2, v^3, u) without its analytic normal
    g = catalog("cuspidal_edge")
    return SurfaceGerm(g.map, g.domain, name="bare_edge")


def test_generic_normal_has_one_global_sign():
    # f_u x f_v = v (-3v, 2, 0) flips with v; the oriented normal does not
    bare = bare_cuspidal_edge().normal_field
    exact = catalog("cuspidal_edge").normal_field
    X = np.array([(u, v) for u in (-0.5, 0.3)
                  for v in (-0.5, -1e-3, 0.0, 1e-3, 0.5)])
    for got in (np.array([bare(tuple(x)) for x in X]), bare.points(X)):
        dots = np.sum(got * exact.points(X), axis=1)
        np.testing.assert_allclose(np.abs(dots), 1.0, rtol=0, atol=1e-9)
        assert len(set(np.sign(dots))) == 1


def test_generic_normal_points_match_per_point(monkeypatch):
    nf = bare_cuspidal_edge().normal_field
    U, V = np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9),
                       indexing="ij")
    X = np.column_stack([U.ravel(), V.ravel()])
    want = np.array([nf(tuple(x)) for x in X])
    # the rows on the singular set v = 0, and only they, take the exact
    # limit, all in one jet
    rows = []
    jet = SurfaceGerm.jet

    def counted(self, point, order=3):
        rows.append(np.array(point))
        return jet(self, point, order)

    monkeypatch.setattr(SurfaceGerm, "jet", counted)
    got = nf.points(X)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    assert len(rows) == 1
    np.testing.assert_array_equal(rows[0], X[X[:, 1] == 0.0])


@pytest.mark.parametrize("make", [lambda: catalog("cuspidal_edge"),
                                  bare_cuspidal_edge])
def test_area_density_closed_form(make):
    # lambda = (f_u x f_v) . nu = v sqrt(9 v^2 + 4) for either normal
    g = make()
    lam = area_density(g)
    U, V = np.meshgrid(np.linspace(-1, 1, 7), np.linspace(-1, 1, 9),
                       indexing="ij")
    want = V * np.sqrt(9 * V ** 2 + 4)
    np.testing.assert_allclose(lam.grid(U, V), want, rtol=0, atol=1e-12)
    got = [lam((u, v)) for u, v in zip(U.ravel(), V.ravel())]
    np.testing.assert_allclose(got, want.ravel(), rtol=0, atol=1e-12)
    # and its gradient (0, (18 v^2 + 4) / sqrt(9 v^2 + 4)), from one jet
    X = np.column_stack([U.ravel(), V.ravel()])
    grad = _lambda_gradient(g.jet(X, 2), g.normal_field.points(X))
    v = X[:, 1]
    np.testing.assert_allclose(
        grad, np.column_stack([0 * v, (18 * v ** 2 + 4) / np.sqrt(9 * v ** 2 + 4)]),
        rtol=0, atol=1e-12)


SINGULAR_CURVES = {
    "cuspidal_edge": lambda s: (s, 0.0),
    "swallowtail": lambda s: (-6.0 * s * s, s),
    "cuspidal_cross_cap": lambda s: (s, 0.0),
    "ccr_example": lambda s: (s, 0.0),
}


@pytest.mark.parametrize("name", sorted(SINGULAR_CURVES))
def test_generic_normal_is_exact_on_the_singular_curve(name):
    # a bare copy has no analytic normal, so its normal is the limit of
    # f_u x f_v; it is oriented at the base point, the analytic one is not
    g = catalog(name)
    exact = g.normal_field
    bare = SurfaceGerm(g.map, g.domain, name="bare_" + name).normal_field
    sign = np.sign(exact(g.base) @ bare(g.base))
    lam = area_density(g)
    for s in np.linspace(-0.4, 0.4, 9):
        p = SINGULAR_CURVES[name](s)
        assert abs(lam(p)) < 1e-12
        np.testing.assert_allclose(sign * bare(p), exact(p), rtol=0,
                                   atol=1e-14)


def test_singular_normal_takes_one_order_3_jet(monkeypatch):
    nf = bare_cuspidal_edge().normal_field
    orders = []
    jet = SurfaceGerm.jet

    def counted(self, point, order=3):
        orders.append(order)
        return jet(self, point, order)

    monkeypatch.setattr(SurfaceGerm, "jet", counted)
    np.testing.assert_array_equal(nf((0.3, 0.0)), [0.0, 1.0, 0.0])
    assert orders == [3]


def test_bare_normal_field_loads_no_scipy():
    # the orientation grid is numpy only; scipy loads where a k-d tree or
    # a connected-component labelling is used
    code = ("import sys; from frontalforge.germ import SurfaceGerm, catalog; "
            "g = catalog('cuspidal_edge'); "
            "SurfaceGerm(g.map, g.domain, name='bare').normal_field; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_germ_builds_one_normal_field(monkeypatch):
    built = []
    init = NormalField.__init__

    def counted(self, germ):
        built.append(germ)
        init(self, germ)

    monkeypatch.setattr(NormalField, "__init__", counted)
    g = bare_cuspidal_edge()
    X = np.array([(0.2, 0.0), (0.1, 0.5)])
    g.lift_points(X)
    g.lift_points(X)
    area_density(g)((0.0, 0.5))
    limiting_normal_curvature(g)
    distinguished_frame(g)
    assert built == [g]


# a cuspidal edge along the unit circle, f = ((1 + v^3) cos u,
# (1 + v^3) sin u, v^2), whose normal turns by more than 90 degrees
# along u: f_u x f_v = v (1 + v^3) (2 cos u, 2 sin u, -3 v)
RING = ("(1 + v^3)*cos(u)", "(1 + v^3)*sin(u)", "v^2")
RING_NORMAL = ("2*cos(u)", "2*sin(u)", "-3*v")


def ring(shift, analytic, domain=((-2.0, 2.0), (-0.5, 0.5))):
    def at(comps):
        return MapDef("ring", ("u", "v"),
                      [c.replace("u", f"(u + {shift})") for c in comps])
    return SurfaceGerm(at(RING), domain, name="ring",
                       normal_map=at(RING_NORMAL) if analytic else None)


@pytest.mark.parametrize("analytic", [True, False])
def test_ring_pair_recovers_the_shift(analytic):
    # f o (u + 0.3, v) against f: the bare normal is continued along u,
    # so it does not flip where it turns past 90 degrees from its base
    # value, and the pair is right equivalent with or without the
    # analytic normals
    from frontalforge.match import connecting_map
    f1 = ring(0.3, analytic, ((-2.2, 1.6), (-0.5, 0.5)))
    cm = connecting_map(f1, ring(0.0, analytic))
    assert cm.sign == 1
    np.testing.assert_allclose(cm.samples_out, cm.samples_in + (0.3, 0.0),
                               rtol=0, atol=1e-12)
    bare = ring(0.0, False).normal_field
    X = np.array([(u, v) for u in (-2.0, -1.0, 0.0, 1.5, 2.0)
                  for v in (-0.3, 0.0, 0.2)])
    np.testing.assert_allclose(bare.points(X),
                               ring(0.0, True).normal_field.points(X),
                               rtol=0, atol=1e-14)


def test_bare_ring_singular_curve_matches_the_analytic_one():
    counts = [sum(len(c.samples) for c in singular_curve(ring(0.0, a)))
              for a in (True, False)]
    assert counts[0] == counts[1] == 256


def test_normal_of_a_flat_frontal_comes_from_a_higher_order():
    # (u, v^4, v^6): f_u x f_v = v^3 (0, -6 v^2, 4) vanishes to order 3
    # on v = 0, past what an order-3 jet shows
    g = SurfaceGerm(MapDef("flat", ("u", "v"), ["u", "v^4", "v^6"]),
                    ((-1, 1), (-1, 1)))
    nu = g.normal_field
    np.testing.assert_array_equal(nu((0.0, 0.0)), [0.0, 0.0, 1.0])
    np.testing.assert_allclose(nu((0.3, 0.5)),
                               np.array([0.0, -1.5, 4.0]) / math.sqrt(18.25),
                               rtol=0, atol=1e-15)


def test_cross_cap_normal_has_no_limit_at_its_singular_point():
    # no node of the grid is the singular point (0, 0): the normal turns
    # once around it, so the signs close around every cell, but its
    # directional limits there disagree
    g = catalog("cross_cap")
    g = SurfaceGerm(g.map, ((-1, 1.1), (-1, 1.1)), base=(0.5, 0.5))
    nu = g.normal_field
    with pytest.raises(NotAFrontal, match="directional limits disagree"):
        nu((0.0, 0.0))


def test_normal_turning_fast_between_nodes_keeps_its_sign():
    # (u, v, cos 20u): f_u x f_v = (20 sin 20u, 0, 1) turns by up to 149
    # degrees between nodes 2/111 apart
    g = SurfaceGerm(MapDef("wavy", ("u", "v"), ["u", "v", "cos(20*u)"]),
                    ((-1, 1), (-1, 1)))
    X = np.vstack([np.random.default_rng(3).uniform(-1, 1, (2000, 2)),
                   np.column_stack([np.linspace(-1, 1, 4001), np.zeros(4001)])])
    s = 20.0 * np.sin(20.0 * X[:, 0])
    exact = np.column_stack([s, 0.0 * s, np.ones_like(s)])
    np.testing.assert_allclose(g.normal_field.points(X),
                               exact / np.linalg.norm(exact, axis=1)[:, None],
                               rtol=0, atol=1e-14)


def test_normal_turning_faster_than_the_grid_resolves_raises():
    # (u, v, cos 2000u) turns by more than 30 degrees within 1/64 of a
    # grid edge: no sign is guessed
    g = SurfaceGerm(MapDef("rough", ("u", "v"), ["u", "v", "cos(2000*u)"]),
                    ((-1, 1), (-1, 1)))
    with pytest.raises(NotAFrontal, match="turns by more than 30 degrees"):
        g.normal_field
