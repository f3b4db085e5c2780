import math

import numpy as np
import pytest

from frontalforge.curve import circle
from frontalforge.exprlang import MapDef
from frontalforge.germ import catalog
from frontalforge.isomer import inverse
from frontalforge.match import (ConnectingMap, MatchError, PlaneMap,
                                connecting_map, image_subset,
                                legendrian_lift, match_normal_forms,
                                properness_probe)
from frontalforge.normalform import (EdgeNormalForm, ScalarProfile,
                                     SurfaceProfile)
from frontalforge.numkit import Interval


def plane(name, comps, domain=(-1.0, 1.0)):
    md = MapDef(name, ("t",), comps, {})
    return PlaneMap(md, Interval(*domain), name=name)


@pytest.fixture(scope="module")
def cusp():
    return plane("cusp", ("t^2", "t^3"))


def test_lift_normal_at_cusp(cusp):
    lift = legendrian_lift(cusp)
    s = lift(0.0)
    assert np.allclose(s.nu, (0.0, 1.0), atol=1e-12)
    # the normal is continuous through the cusp: compare both sides
    left, right = lift(-1e-3).nu, lift(1e-3).nu
    assert float(left @ right) > 0.99


def test_lift_degenerate_cusp():
    lift = legendrian_lift(plane("flat", ("t^6", "t^9")))
    assert np.allclose(lift(0.0).nu, (0.0, 1.0), atol=1e-12)


def test_lift_surface_germ():
    lift = legendrian_lift(catalog("cuspidal_edge"))
    s = lift((0.0, 0.0))
    assert np.allclose(np.abs(s.nu), (0.0, 1.0, 0.0), atol=1e-12)
    assert np.linalg.norm(lift((0.1, 0.2)).nu) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_image_subset(cusp):
    ok, gap = image_subset(cusp, cusp.domain, cusp, cusp.domain, 1e-8)
    assert ok and gap < 1e-10
    half = Interval(-0.5, 0.5)
    ok, _ = image_subset(cusp, half, cusp, cusp.domain, 1e-8)
    assert ok
    other = plane("cusp2", ("t^2", "t^3 + 0.2*t^4"))
    ok, gap = image_subset(cusp, cusp.domain, other, other.domain, 1e-6)
    assert not ok and gap > 1e-4


def test_connecting_map_cubic(cusp):
    # same image traced as s = t^(1/3): psi(t) = t^3
    src = plane("slow", ("t^6", "t^9"))
    psi = connecting_map(src, cusp)
    assert isinstance(psi, ConnectingMap)
    assert psi.sign in (-1, 1)
    ts = np.linspace(-0.9, 0.9, 33)
    err = max(abs(np.asarray(psi(t)).item() - t ** 3) for t in ts)
    assert err < 1e-8
    assert psi.residual_image < 1e-8


def test_connecting_map_identity(cusp):
    psi = connecting_map(cusp, cusp)
    err = max(abs(np.asarray(psi(t)).item() - t) for t in np.linspace(-0.9, 0.9, 21))
    assert err < 1e-10
    assert psi.sign == 1


def test_connecting_map_flip():
    # even image: t -> (t^2, t^4) matches itself under t -> -t as well,
    # and (t^2, -t^3) matches the cusp with the opposite normal sign
    a = plane("cusp_up", ("t^2", "t^3"))
    b = plane("cusp_dn", ("t^2", "-t^3"))
    psi = connecting_map(a, b)
    err = max(abs(np.asarray(psi(t)).item() + t) for t in np.linspace(-0.9, 0.9, 21))
    assert err < 1e-8


def test_connecting_map_rejects_disjoint(cusp):
    far = plane("far", ("t^2 + 10", "t^3"))
    with pytest.raises(MatchError):
        connecting_map(cusp, far)


def edge(crease, theta_value):
    one = SurfaceProfile.constant(1.0)
    return EdgeNormalForm(crease, ScalarProfile.constant(theta_value),
                          one, one)


def test_match_normal_forms():
    nf = edge(circle(1.0, 1.5), 0.3)
    assert match_normal_forms(nf, nf) == (False, 1)

    flipped = EdgeNormalForm(nf.crease, nf.theta, nf.a,
                             SurfaceProfile.constant(-1.0))
    u_flip, e = match_normal_forms(nf, flipped)
    assert (u_flip, e) == (False, -1)

    one = SurfaceProfile.constant(1.0)
    rev = EdgeNormalForm(inverse(nf).crease, ScalarProfile.constant(-0.3),
                         one, one)
    assert match_normal_forms(nf, rev) == (True, -1)

    other = edge(circle(2.0, 1.5), 0.3)
    with pytest.raises(MatchError):
        match_normal_forms(nf, other)


def test_properness_finite():
    fn = lambda x: x * math.exp(-x * x)
    rep = properness_probe(fn, 0.5)
    assert rep.verdict == "finite"
    assert len(set(rep.counts)) == 1 and rep.counts[0] <= 2


def test_properness_accumulating():
    fn = lambda x: x * math.sin(1.0 / x) if x != 0.0 else 0.0
    rep = properness_probe(fn, 0.0)
    assert rep.verdict == "suspected_infinite"
    assert rep.counts[-1] >= 64
    assert all(b > a for a, b in zip(rep.counts, rep.counts[1:]))


def test_properness_plateau():
    def spliced(x):
        ax = abs(x)
        if ax <= 1.0:
            return 0.0
        if ax >= 2.0:
            return x
        return math.copysign(2.0 * (ax - 1.0), x)

    rep = properness_probe(spliced, 0.0)
    assert rep.verdict == "suspected_infinite"
    assert all(c == 1 for c in rep.counts)
    assert rep.widths[-1] > 0.25 * 0.5


def test_properness_report_json():
    rep = properness_probe(lambda x: x, 0.0, levels=4)
    d = rep.to_json()
    assert d["verdict"] == "finite"
    assert len(d["component_counts"]) == len(d["radii"]) == 4


# ------------------------------------------------------------- batched lifts

def scalar_plane_normal(pm, t):
    """The per-point PlaneMap normal the batched lift replaces: the jet's
    rotated tangent (or the cusp fallback), aligned with the nearest
    cached node found by a full distance scan."""
    i = int(np.argmin(np.abs(pm._ts - t)))
    nu = pm._raw_normal(float(t))
    if nu is None:
        return pm._nus[i].copy()
    return -nu if nu @ pm._nus[i] < 0 else nu


def involution_germ(name, diag):
    from frontalforge.geom import Isometry
    from frontalforge.symmetry import _TransformedGerm
    return _TransformedGerm(catalog(name), Isometry(np.diag(diag)))


SURFACES = [
    lambda: catalog("swallowtail"),
    lambda: catalog("sw_example", b=0.7, c=-1.2),
    lambda: involution_germ("ccr_example", (-1.0, 1.0, 1.0)),
]


@pytest.mark.parametrize("make", SURFACES)
def test_lift_points_match_per_point_lift(make):
    from frontalforge.germ import NormalField
    germ = make()
    X = np.random.default_rng(3).uniform(-0.5, 0.5, (40, 2))
    X[0] = (0.0, 0.0)
    F, nu = germ.lift_points(X)
    lift = legendrian_lift(germ)
    samples = [lift(x) for x in X]
    assert np.array_equal(F, [s.fx for s in samples])
    assert np.array_equal(nu, [s.nu for s in samples])
    # the tape's grid path (numpy's power) and the float path (libm's
    # pow) may round differently in the last place
    nf = NormalField(germ)
    np.testing.assert_allclose(F, [germ(tuple(x)) for x in X], rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(nu, [nf(tuple(x)) for x in X], rtol=0,
                               atol=1e-15)


@pytest.mark.parametrize("comps", [("t^2", "t^3"), ("t^6", "t^9"),
                                   ("t^2", "t^3 + 0.2*t^4")])
def test_plane_lift_points_match_per_point_normal(comps):
    pm = plane("pm", comps)
    ts = np.concatenate([[0.0, -1.0, 1.0, 1e-9],
                         np.random.default_rng(5).uniform(-1, 1, 60),
                         pm._ts[::37], 0.5 * (pm._ts[:-1] + pm._ts[1:])[::41]])
    F, nu = pm.lift_points(ts)
    lift = legendrian_lift(pm)
    samples = [lift(t) for t in ts]
    assert np.array_equal(F, [s.fx for s in samples])
    assert np.array_equal(nu, [s.nu for s in samples])
    np.testing.assert_allclose(F, [pm(t) for t in ts], rtol=0, atol=1e-15)
    np.testing.assert_allclose(nu, [scalar_plane_normal(pm, t) for t in ts],
                               rtol=0, atol=1e-15)
    # the cusp fallback at t = 0 gives the upward normal
    assert np.allclose(nu[0], (0.0, 1.0), atol=1e-15)


def one_point_polish(lift, domain, target, e, x0, iters=40):
    """The one-point lift polish that `damped_gauss_newton` batches."""
    x = np.asarray(x0, float)

    def lift_at(xx):
        s = lift(xx)
        return np.concatenate([s.fx, e * s.nu])

    def clamp(xx):
        return np.array([min(max(xx[i], domain[i].lo), domain[i].hi)
                         for i in range(len(xx))])

    lam = 1e-8
    best = (np.linalg.norm(lift_at(x) - target), x)
    h = 1e-6
    for _ in range(iters):
        r = lift_at(x) - target
        cols = []
        for i in range(len(x)):
            dp = x.copy(); dm = x.copy()
            dp[i] += h; dm[i] -= h
            cols.append((lift_at(dp) - lift_at(dm)) / (2 * h))
        J = np.stack(cols, axis=1)
        try:
            step = np.linalg.solve(J.T @ J + lam * np.eye(len(x)), -J.T @ r)
        except np.linalg.LinAlgError:
            break
        xn = clamp(x + step)
        rn = np.linalg.norm(lift_at(xn) - target)
        if rn < best[0]:
            best = (rn, xn)
            x = xn
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
            if lam > 1e6:
                break
    return best


@pytest.mark.parametrize("case", ["plane", "surface"])
def test_batched_polish_matches_one_point_loop(case):
    from frontalforge.numkit import damped_gauss_newton
    rng = np.random.default_rng(11)
    if case == "plane":
        f1, f2 = plane("slow", ("t^6", "t^9")), plane("cusp", ("t^2", "t^3"))
        qs = rng.uniform(-1, 1, (12, 1))
        seeds = np.clip(qs ** 3 + rng.normal(0, 0.05, qs.shape), -1, 1)
    else:
        f1 = involution_germ("cuspidal_edge", (1.0, -1.0, 1.0))
        f2 = catalog("cuspidal_edge")
        qs = rng.uniform(-0.9, 0.9, (12, 2))
        seeds = np.clip(qs * (1, -1) + rng.normal(0, 0.05, qs.shape), -1, 1)
    domain = f2.domain if case == "surface" else (f2.domain,)
    F1, nu1 = f1.lift_points(qs)
    targets = np.hstack([F1, nu1])
    lo = np.array([d.lo for d in domain])
    hi = np.array([d.hi for d in domain])
    lift2 = legendrian_lift(f2)
    for e in (1, -1):
        def fn(X):
            F, nu = f2.lift_points(X)
            return np.hstack([F, e * nu])

        x, res, steps = damped_gauss_newton(fn, targets, seeds, lo, hi, 40)
        assert np.all((steps >= 1) & (steps <= 40))
        for k in range(len(qs)):
            ref_res, ref_x = one_point_polish(lift2, domain, targets[k], e,
                                              seeds[k])
            # the batch sums the normal equations and residual norms in
            # another order, so rows may differ in the last places; with
            # the wrong sign (residual near 2) the minimum is a flat valley
            # that such differences move along by up to 1e-7
            assert res[k] == pytest.approx(ref_res, rel=1e-12, abs=1e-15)
            if e == 1:
                assert ref_res < 1e-10
                np.testing.assert_allclose(x[k], ref_x, rtol=0, atol=1e-12)


def test_closest_point_rows_match_one_point_solver():
    from frontalforge.match import _gn_closest
    from frontalforge.numkit import damped_gauss_newton
    germ = catalog("swallowtail")
    rng = np.random.default_rng(2)
    targets = germ.points(rng.uniform(-0.6, 0.6, (10, 2)))
    seeds = rng.uniform(-0.6, 0.6, (10, 2))
    x, res, _ = damped_gauss_newton(germ.points, targets, seeds,
                                    np.array([-1.0, -1.0]),
                                    np.array([1.0, 1.0]), 30)
    for k in range(10):
        ref_res, ref_x = _gn_closest(germ, germ.domain, targets[k], seeds[k])
        np.testing.assert_allclose(x[k], ref_x, rtol=0, atol=1e-12)
        assert res[k] == pytest.approx(ref_res, rel=1e-12, abs=1e-15)


def test_grid_domain_error_raises_scalar_error():
    from frontalforge.exprlang import EvalDomainError
    from frontalforge.germ import NotAFrontal, SurfaceGerm
    germ = SurfaceGerm(MapDef("g", ("u", "v"), ["u", "v", "log(u)"]),
                       ((-1, 1), (-1, 1)),
                       normal_map=MapDef("n", ("u", "v"), ["u", "v", "1"]))
    X = np.array([[0.5, 0.1], [-0.25, 0.2]])
    with pytest.raises(EvalDomainError) as batched:
        germ.lift_points(X)
    with pytest.raises(EvalDomainError) as scalar:
        germ((-0.25, 0.2))
    assert str(batched.value) == str(scalar.value)

    flat = SurfaceGerm(MapDef("g", ("u", "v"), ["u", "v", "u*v"]),
                       ((-1, 1), (-1, 1)),
                       normal_map=MapDef("n", ("u", "v"), ["u", "0", "0"]))
    with pytest.raises(NotAFrontal, match="vanishes"):
        flat.lift_points(np.array([[0.5, 0.0], [0.0, 0.3]]))

    pm = plane("root", ("t", "sqrt(t)"), domain=(0.0, 1.0))
    with pytest.raises(EvalDomainError) as batched:
        pm.points(np.array([0.25, -0.5]))
    with pytest.raises(EvalDomainError) as scalar:
        pm(-0.5)
    assert str(batched.value) == str(scalar.value)


def test_connecting_map_rows_equal_single_calls():
    from frontalforge.geom import Isometry
    from frontalforge.symmetry import connecting_involution
    cm = connecting_involution(catalog("cuspidal_edge"),
                               Isometry(np.diag([1.0, -1.0, 1.0])))["psi"]
    X = np.random.default_rng(4).uniform(-0.8, 0.8, (7, 2))
    Y = cm(X)
    assert Y.shape == (7, 2)
    assert np.array_equal(Y, [cm(x) for x in X])
    np.testing.assert_allclose(Y, X * (1.0, -1.0), rtol=0, atol=5e-7)
