import math
import subprocess
import sys

import numpy as np
import pytest

from frontalforge.numkit import Interval, Series


def test_interval_basics():
    iv = Interval(-1.0, 3.0)
    assert iv.length == 4.0
    assert iv.mid == 1.0
    assert iv.lo <= 0.0 <= iv.hi
    assert not iv.lo <= 3.5 <= iv.hi
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


def test_numkit_loads_no_scipy():
    # the kernels are numpy only; scipy loads where a spline or a k-d
    # tree is used
    code = ("import sys, frontalforge.numkit; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


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


def test_damped_gauss_newton_stops_once_the_step_is_lost():
    # an inconsistent linear system R^2 -> R^3: each target lies 2^-30 off
    # the image, normal to it, so each row lands on its exact binary
    # least-squares solution, where J^T r = 0 and the step no longer
    # changes x.  The residual stays far above the rounding floor, so the
    # row stops by the lost-step rule, not by the floor, instead of
    # raising its damping past the 1e6 bound (18 steps)
    from frontalforge.numkit import EPS, damped_gauss_newton
    A = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, -1.0]])
    off = 2.0 ** -30 * np.cross(A[:, 0], A[:, 1])
    solutions = np.array([[0.5, -0.25], [1.0, 2.0], [-0.75, 0.125]])
    target = solutions @ A.T + off
    x0 = np.array([[3.0, 3.0], [0.0, 0.0], [-0.75, 0.0]])
    x, res, steps = damped_gauss_newton(lambda X: X @ A.T, target, x0,
                                        np.full(2, -10.0), np.full(2, 10.0),
                                        40)
    assert np.array_equal(x, solutions)
    assert np.array_equal(res, np.full(3, np.linalg.norm(off)))
    assert np.all(res > 1e3 * 4 * EPS * np.abs(target).max(axis=1))
    assert np.all(steps <= 4)


def two_call_gauss_newton(fn, target, x0, lo, hi, iters, h=1e-6,
                          rounding_floor=True):
    """The solver loop before each step became one call: per step, one
    call of fn on the 2d shifts of every live row's x, then one on the
    trial points.  A row stops at the same rounding floor of its target,
    or, with rounding_floor=False, runs on below it as it did before."""
    from frontalforge.numkit import EPS, _solve_rows
    x = np.array(x0, dtype=float)
    n, d = x.shape
    r = fn(x) - target
    best = np.linalg.norm(r, axis=1)
    floor = 4 * EPS * np.maximum(1.0, np.abs(target).max(axis=1))
    if not rounding_floor:
        floor[:] = -1.0
    lam = np.full(n, 1e-8)
    steps = np.zeros(n, dtype=int)
    live = np.arange(n)
    for _ in range(iters):
        if not live.size:
            break
        xl = x[live]
        shifted = []
        for sign in (1.0, -1.0):
            for i in range(d):
                xs = xl.copy()
                xs[:, i] += sign * h
                shifted.append(xs)
        vals = fn(np.concatenate(shifted)).reshape(2, d, len(live), -1)
        J = np.stack([(vals[0, i] - vals[1, i]) / (2 * h) for i in range(d)],
                     axis=2)
        Jt = J.transpose(0, 2, 1)
        A = Jt @ J + lam[live, None, None] * np.eye(d)
        step, ok = _solve_rows(A, -Jt @ r[live][:, :, None])
        steps[live] += 1
        xn = np.clip(xl + step, lo, hi)
        rn_vec = fn(xn) - target[live]
        rn = np.linalg.norm(rn_vec, axis=1)
        better = ok & (rn < best[live])
        up = live[better]
        x[up], best[up], r[up] = xn[better], rn[better], rn_vec[better]
        lam[up] = np.maximum(lam[up] * 0.3, 1e-12)
        lam[live[~better]] *= 10.0
        moved = (xl + step != xl).any(axis=1)
        live = live[ok & moved & (better | (lam[live] <= 1e6))
                    & (best[live] > floor[live])]
    return x, best, steps


def test_damped_gauss_newton_stops_at_the_rounding_floor():
    # a linear residual R^2 -> R^3: rows whose targets lie on the image
    # have exact binary solutions and stop after the step that reaches
    # their floor 4 eps max(1, |target|_inf); rows whose targets lie off
    # the image keep a residual far above it and take the same steps as
    # without the floor
    from frontalforge.numkit import EPS, damped_gauss_newton
    A = np.array([[2.0, 1.0], [1.0, 3.0], [1.0, -1.0]])
    off = np.cross(A[:, 0], A[:, 1])  # normal to the image
    solutions = np.array([[0.5, -0.25], [1.0, 2.0], [-0.75, 0.125]] * 2)
    target = solutions @ A.T
    target[3:] += 0.5 * off
    x0 = np.array([[3.0, 3.0], [0.0, 0.0], [-0.75, 0.0]] * 2)
    args = (lambda X: X @ A.T, target, x0, np.full(2, -10.0),
            np.full(2, 10.0))
    x, res, steps = damped_gauss_newton(*args, 40)
    floor = 4 * EPS * np.abs(target).max(axis=1)
    before = two_call_gauss_newton(*args, 40, rounding_floor=False)

    exact = slice(0, 3)
    assert np.array_equal(x[exact], solutions[exact])
    assert np.all(res[exact] <= floor[exact])
    # one step fewer, and one step earlier the row was still above it
    assert np.array_equal(steps[exact], before[2][exact] - 1)
    for k in range(3):
        _, res_k, _ = damped_gauss_newton(*args, int(steps[k]) - 1)
        assert res_k[k] > floor[k]

    above = slice(3, 6)
    assert np.all(res[above] > 1e3 * floor[above])
    assert np.array_equal(x[above], before[0][above])
    assert np.array_equal(res[above], before[1][above])
    assert np.array_equal(steps[above], before[2][above])


def test_damped_gauss_newton_on_no_rows():
    # a polish whose groups are all dropped at seeding solves no row:
    # three empty arrays, and fn is never called
    from frontalforge.numkit import damped_gauss_newton
    calls = []

    def fn(X):
        calls.append(len(X))
        return X

    x, res, steps = damped_gauss_newton(fn, np.zeros((0, 2)),
                                        np.zeros((0, 2)), np.full(2, -1.0),
                                        np.full(2, 1.0), 30)
    assert x.shape == (0, 2) and res.shape == (0,) and steps.shape == (0,)
    assert calls == []


def _curved(X):
    u, v = X[:, 0], X[:, 1]
    return np.stack([u * u - v, np.sin(3 * u) * v, np.exp(0.5 * v) + u * v],
                    axis=1)


@pytest.mark.parametrize("case", ["curved", "swallowtail"])
def test_one_call_step_equals_two_call_loop(case):
    # a step evaluates its trial points with their shifts in one call, and
    # a row that rejects its step keeps the Jacobian of its unchanged x:
    # the same x, residual and step count as recomputing it
    from frontalforge.germ import catalog
    from frontalforge.numkit import damped_gauss_newton
    fn = _curved if case == "curved" else catalog("swallowtail").points
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-0.8, 0.8, (60, 2))
    # half the targets lie on the image, half off it (rejected steps)
    target = fn(rng.uniform(-0.8, 0.8, (60, 2)))
    target[30:] += rng.normal(0, 0.3, (30, 3))
    lo, hi = np.full(2, -1.0), np.full(2, 1.0)
    calls = []

    def counted(X):
        calls.append(len(X))
        return fn(X)

    x, res, steps = damped_gauss_newton(counted, target, x0, lo, hi, 30)
    ref = two_call_gauss_newton(fn, target, x0, lo, hi, 30)
    assert np.array_equal(x, ref[0])
    assert np.array_equal(res, ref[1])
    assert np.array_equal(steps, ref[2])
    assert 1 < len(calls) <= 30 + 1
    # every call holds its rows and their 4 shifts
    assert all(k % 5 == 0 for k in calls)


@pytest.mark.parametrize("n", [20000, -7])
def test_integer_power_jet_partials(n):
    from frontalforge.exprlang import MapDef
    x = 1.0001
    jet = MapDef("m", ("u",), [f"u^({n})"]).eval_jet((x,), 3)
    falling = [1.0, n, n * (n - 1), n * (n - 1) * (n - 2)]
    for k in range(4):
        assert jet.partial(k)[0] == pytest.approx(falling[k] * x ** (n - k),
                                                  rel=1e-12, abs=0)


def test_square_and_cube_jets_are_repeated_products():
    u = Series.variable(0, 0.37, 2, 3) + Series.variable(1, -1.3, 2, 3)
    for n in (2, 3):
        power, product = u ** n, u
        for _ in range(n - 1):
            product = product * u
        assert np.array_equal(power.c, product.c)
