import math

import numpy as np
import pytest

from frontalforge import curve as ffcurve
from frontalforge import exprlang as ex
from frontalforge.curve import (ReparamCurve, SpaceCurve, VanishingCurvature,
                                arclength_param, center_param, circle, frenet,
                                helix, shift_param, spline_curve)
from frontalforge.numkit import Interval, NumkitError, QuadratureError


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
    assert ReparamCurve(c).length == pytest.approx(exact, abs=1e-10)
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


def test_spline_curve_matches_samples():
    base = helix(1.0, 1.0, 1.0)
    us = np.linspace(-1.0, 1.0, 33)
    pts = np.array([base(u) for u in us])
    sc = spline_curve(us, pts)
    for u in (-0.7, 0.0, 0.4):
        assert np.allclose(sc(u), base(u), atol=1e-6)


# ------------------------------------------------------------- arc length

def _curve(name, comps, lo, hi):
    return SpaceCurve(ex.MapDef(name, ("t",), comps), Interval(lo, hi), name)


def test_curve_length_cusp_oracle():
    # the arc length of (t^2, t^3) on [0, 1] is (13^1.5 - 8)/27; the speed
    # vanishes at t = 0
    c = _curve("cusp", ("t^2", "t^3", "0"), 0.0, 1.0)
    assert ReparamCurve(c).length == pytest.approx(
        (13.0 ** 1.5 - 8.0) / 27.0, rel=0, abs=1e-13)


@pytest.mark.parametrize("eps,length", [(1e-6, 2.827229691618027),
                                        (1e-8, 2.828307317793769),
                                        (1e-12, 2.8284259266066494)])
def test_curve_length_near_kinks(eps, length):
    # (t, sqrt(t^2 + eps)) turns through a right angle within |t| ~
    # sqrt(eps): the panels there are refined until both rules agree.
    # The reference lengths come from adaptive Simpson quadrature at 1e-12.
    c = _curve("kink", ("t", f"sqrt(t^2 + {eps})", "0"), -1.0, 1.0)
    assert ReparamCurve(c).length == pytest.approx(length, rel=0, abs=1e-13)


def test_curve_length_fails_on_an_oscillating_speed():
    comps = ("t", "t^2*sin(1/t)", "0")
    # t = 0 is a panel end: the speed is evaluated there and raises
    with pytest.raises(ex.EvalDomainError, match="1/t"):
        ReparamCurve(_curve("osc", comps, -1.0, 1.0))
    # elsewhere the oscillation near 0 never resolves: the panels to halve
    # outgrow the per-level cap
    with pytest.raises(QuadratureError, match="did not converge"):
        ReparamCurve(_curve("osc", comps, -1.0, 1.1))


def _wavy():
    return arclength_param(_curve("wavy", ("cos(t)", "sin(t)",
                                           "t + 0.1*sin(2*t)"), -1.5, 1.5))


def test_arclength_stations_take_one_gauss_newton_call(monkeypatch):
    c = _wavy()
    solve = ffcurve.damped_gauss_newton
    calls = []

    def counted(fn, target, x0, *args, **kwargs):
        calls.append(len(x0))
        return solve(fn, target, x0, *args, **kwargs)

    monkeypatch.setattr(ffcurve, "damped_gauss_newton", counted)
    ss = c.domain.grid(129)
    d = c.derivatives(ss, 3)
    assert calls == [129]
    np.testing.assert_allclose(np.linalg.norm(d[1], axis=-1), 1.0,
                               rtol=0, atol=1e-12)
    # c(s) is the base curve at the solved parameters
    np.testing.assert_array_equal(d[0], c.map.base(c.map.params(ss)))


def test_arclength_station_beyond_the_length_raises():
    rp = _wavy().map
    assert isinstance(rp, ReparamCurve)
    s = rp.length + 1e-6
    with pytest.raises(NumkitError, match=f"s={s}"):
        rp.params(np.array([0.5, s]))
