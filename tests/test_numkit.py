import math

import numpy as np
import pytest

from frontalforge.numkit import (BracketError, Interval, Series, eval_jet,
                                 integrate, invert_monotone)


def test_interval_basics():
    iv = Interval(-1.0, 3.0)
    assert iv.length == 4.0
    assert iv.mid == 1.0
    assert iv.contains(0.0)
    assert not iv.contains(3.5)
    g = iv.grid(5)
    assert np.allclose(g, [-1.0, 0.0, 1.0, 2.0, 3.0])


def test_interval_rejects_reversed_bounds():
    with pytest.raises(Exception):
        Interval(2.0, 1.0)


def test_series_arithmetic_and_derivatives():
    u = Series.variable(0, 0.0, 2, 3)
    v = Series.variable(1, 0.0, 2, 3)
    s = (u + v) * (u - v)  # u^2 - v^2
    assert s.deriv((2, 0)) == pytest.approx(2.0)
    assert s.deriv((0, 2)) == pytest.approx(-2.0)
    assert s.deriv((1, 1)) == pytest.approx(0.0)


def test_series_composition_sin():
    u = Series.variable(0, 0.5, 1, 3)
    s = u.sin()
    assert s.deriv((0,)) == pytest.approx(math.sin(0.5))
    assert s.deriv((1,)) == pytest.approx(math.cos(0.5))
    assert s.deriv((2,)) == pytest.approx(-math.sin(0.5))


def test_series_division():
    u = Series.variable(0, 2.0, 1, 3)
    s = Series.constant(1.0, 1, 3) / u
    assert s.deriv((0,)) == pytest.approx(0.5)
    assert s.deriv((1,)) == pytest.approx(-0.25)


def test_eval_jet_finite_difference():
    f = lambda p: np.array([math.sin(p[0]) * p[1], p[0] ** 3])
    j = eval_jet(f, (0.3, 0.7), 2)
    assert j.partial(1, 0)[0] == pytest.approx(0.7 * math.cos(0.3), abs=1e-8)
    assert j.partial(0, 1)[0] == pytest.approx(math.sin(0.3), abs=1e-8)
    assert j.partial(2, 0)[1] == pytest.approx(6 * 0.3, abs=1e-5)


def test_integrate_cusp_speed_oracle():
    # arc length of (t^2, t^3) on [0, 1] has the closed form (13^1.5 - 8)/27
    f = lambda t: math.hypot(2 * t, 3 * t * t)
    val = integrate(f, Interval(0.0, 1.0), tol=1e-12)
    assert val == pytest.approx((13.0 ** 1.5 - 8.0) / 27.0, abs=1e-11)


def test_integrate_parabola_arclength():
    f = lambda t: math.sqrt(1.0 + 4.0 * t * t)
    exact = (2.0 * math.sqrt(5.0) + math.asinh(2.0)) / 4.0
    assert integrate(f, Interval(0.0, 1.0)) == pytest.approx(exact, abs=1e-11)


def test_invert_monotone():
    g = lambda t: t ** 3 + t
    t = invert_monotone(g, 2.0, Interval(0.0, 2.0))
    assert g(t) == pytest.approx(2.0, abs=1e-11)


def test_invert_monotone_bad_bracket():
    with pytest.raises(BracketError):
        invert_monotone(lambda t: t, 5.0, Interval(0.0, 1.0))


def test_damped_gauss_newton_rows_are_independent():
    from frontalforge.numkit import damped_gauss_newton

    def fn(X):
        # rank-one Jacobian; scaled by 1e10 where u > 5, so that the
        # damped normal equations of that row are singular in floating point
        scale = np.where(X[:, 0] > 5.0, 1e10, 1.0)
        return (scale * (X[:, 0] + X[:, 1]))[:, None]

    x0 = np.array([[10.0, 0.0], [1.0, 0.5]])
    x, res, steps = damped_gauss_newton(fn, np.zeros((2, 1)), x0,
                                        np.array([-20.0, -20.0]),
                                        np.array([20.0, 20.0]), 30)
    # the singular row stops at once and keeps its start
    assert steps[0] == 1 and np.array_equal(x[0], x0[0])
    assert res[0] == pytest.approx(1e11)
    # the other row converges to the line u + v = 0
    assert abs(x[1].sum()) < 1e-12 and res[1] < 1e-12
    assert 1 < steps[1] <= 30
