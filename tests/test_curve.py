import math

import numpy as np
import pytest

from frontalforge import exprlang as ex
from frontalforge.curve import (SpaceCurve, VanishingCurvature,
                                arclength_param, center_param, circle,
                                curve_length, curve_plane, curve_symmetry,
                                frenet, helix, shift_param, spline_curve)
from frontalforge.numkit import Interval


def test_circle_unit_speed_curvature():
    c = circle(2.0, 1.0)
    fr = frenet(c, 0.3)
    assert np.linalg.norm(c.derivatives(0.3, 1)[1]) == pytest.approx(1.0)
    assert fr.kappa == pytest.approx(0.5, abs=1e-12)
    assert abs(fr.tau) < 1e-10


def test_helix_curvature_torsion():
    c = helix(1.0, 1.0, 2.0)
    fr = frenet(c, 0.7)
    assert fr.kappa == pytest.approx(0.5, abs=1e-12)
    assert fr.tau == pytest.approx(0.5, abs=1e-10)


def test_frenet_frame_orthonormal():
    c = helix(1.0, 0.5, 2.0)
    fr = frenet(c, -0.4)
    M = np.stack([fr.e, fr.n, fr.b])
    assert np.allclose(M @ M.T, np.eye(3), atol=1e-12)
    assert np.allclose(np.cross(fr.e, fr.n), fr.b, atol=1e-12)


def test_vanishing_curvature_raises():
    m = ex.MapDef("line", ("t",), ("t", "0", "0"))
    c = SpaceCurve(m, Interval(-1.0, 1.0), "line")
    with pytest.raises(VanishingCurvature):
        frenet(c, 0.0)


def test_arclength_parabola_oracle():
    m = ex.MapDef("par", ("t",), ("t", "t^2", "0"))
    c = SpaceCurve(m, Interval(0.0, 1.0), "par")
    exact = (2.0 * math.sqrt(5.0) + math.asinh(2.0)) / 4.0
    assert curve_length(c) == pytest.approx(exact, abs=1e-10)
    ca = arclength_param(c)
    assert ca.domain.length == pytest.approx(exact, abs=1e-10)
    for s in np.linspace(0.05, exact - 0.05, 7):
        assert np.linalg.norm(ca.derivatives(s, 1)[1]) == pytest.approx(
            1.0, abs=1e-8)


def test_arclength_constant_speed_fast_path():
    c = helix(1.0, 1.0, 1.0)  # already unit speed on [-1, 1]
    ca = arclength_param(c)
    assert ca.is_expression
    assert ca.domain.length == pytest.approx(2.0)


def test_shift_and_center_param():
    m = ex.MapDef("par", ("t",), ("t", "t^2", "0"))
    c = SpaceCurve(m, Interval(0.0, 2.0), "par")
    cc = center_param(c)
    assert cc.domain.lo == pytest.approx(-1.0)
    assert np.allclose(cc(0.0), c(1.0))
    cs = shift_param(arclength_param(c), 0.5)
    assert np.allclose(cs(0.0), arclength_param(c)(0.5))


def test_curve_plane():
    c = circle(1.0, 1.0)
    pl = curve_plane(c)
    assert pl is not None
    assert abs(abs(pl.normal[2]) - 1.0) < 1e-8
    assert curve_plane(helix(1.0, 1.0, 1.0)) is None


def test_curve_symmetry_circle():
    syms = curve_symmetry(circle(1.0, 1.0))
    assert len(syms) >= 1
    c = circle(1.0, 1.0)
    for T, det in syms:
        assert np.allclose(T.Q @ T.Q, np.eye(3), rtol=0, atol=1e-10)
        assert np.allclose(T.Q @ T.b, -T.b, rtol=0, atol=1e-10)
        assert det == pytest.approx(T.det)
        # endpoints exchange
        assert np.allclose(T(c(-1.0)), c(1.0), atol=1e-8)


def test_spline_curve_matches_samples():
    base = helix(1.0, 1.0, 1.0)
    us = np.linspace(-1.0, 1.0, 33)
    pts = np.array([base(u) for u in us])
    sc = spline_curve(us, pts)
    for u in (-0.7, 0.0, 0.4):
        assert np.allclose(sc(u), base(u), atol=1e-6)
