import math

import numpy as np
import pytest

from closest_reference import one_point_closest
from frontalforge.exprlang import MapDef
from frontalforge.germ import catalog
from frontalforge.match import (ConnectingMap, LiftInjectivityError,
                                MatchError, PlaneMap, connecting_map,
                                legendrian_lift, properness_probe)
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


def test_plane_map_needs_an_expression_map():
    with pytest.raises(MatchError, match="expression map"):
        PlaneMap(lambda t: np.array([t * t, t ** 3]), Interval(-1.0, 1.0))


def test_lift_degenerate_cusp():
    lift = legendrian_lift(plane("flat", ("t^6", "t^9")))
    assert np.allclose(lift(0.0).nu, (0.0, 1.0), atol=1e-12)


def test_lift_surface_germ():
    lift = legendrian_lift(catalog("cuspidal_edge"))
    s = lift((0.0, 0.0))
    assert np.allclose(np.abs(s.nu), (0.0, 1.0, 0.0), atol=1e-12)
    assert np.linalg.norm(lift((0.1, 0.2)).nu) == pytest.approx(1.0,
                                                                abs=1e-12)


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
    # (t^2, -t^3) matches the cusp under t -> -t, which reverses the
    # parameter too, so the continuous normals agree: e = +1
    a = plane("cusp_up", ("t^2", "t^3"))
    b = plane("cusp_dn", ("t^2", "-t^3"))
    psi = connecting_map(a, b)
    err = max(abs(np.asarray(psi(t)).item() + t) for t in np.linspace(-0.9, 0.9, 21))
    assert err < 1e-8


def test_connecting_map_rejects_disjoint(cusp):
    far = plane("far", ("t^2 + 10", "t^3"))
    with pytest.raises(MatchError):
        connecting_map(cusp, far)


def test_connecting_map_rejects_a_lift_collision():
    # the fold (t^2, t^4) has f(-t) = f(t) and nu(-t) = nu(t)
    with pytest.raises(LiftInjectivityError, match="lift collision"):
        connecting_map(plane("cusp", ("t^2", "t^3"), (-0.5, 0.5)),
                       plane("fold", ("t^2", "t^4"), (-0.5, 0.5)))


def test_connecting_map_rejects_a_psi_that_folds():
    # psi(t) = t^2 maps t and -t to the same point
    with pytest.raises(LiftInjectivityError,
                       match="recovered psi identifies distant domain"):
        connecting_map(plane("even", ("t^4", "t^6"), (-0.5, 0.5)),
                       plane("cusp", ("t^2", "t^3"), (-0.5, 0.5)))


def test_properness_finite():
    fn = lambda x: x * math.exp(-x * x)
    rep = properness_probe(np.vectorize(fn, otypes=[float]), 0.5)
    assert rep.verdict == "finite"
    assert len(set(rep.counts)) == 1 and rep.counts[0] <= 2


def test_properness_accumulating():
    fn = lambda x: x * math.sin(1.0 / x) if x != 0.0 else 0.0
    rep = properness_probe(np.vectorize(fn, otypes=[float]), 0.0)
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

    rep = properness_probe(np.vectorize(spliced, otypes=[float]), 0.0)
    assert rep.verdict == "suspected_infinite"
    assert all(c == 1 for c in rep.counts)
    assert rep.widths[-1] > 0.25 * 0.5


def test_properness_report_json():
    rep = properness_probe(lambda x: x, 0.0, levels=4)
    d = rep.to_json()
    assert d["verdict"] == "finite"
    assert len(d["component_counts"]) == len(d["radii"]) == 4


def per_point_probe(fn, p, r0=0.5, levels=8, grid=4096):
    """The per-point probe that `properness_probe` replaced: fn takes one
    float, and is called once per grid node."""
    from frontalforge.match import (PropernessReport, _count_runs,
                                    _verdict)
    fp = fn(p)
    if not np.isfinite(fp):
        fp = 0.5 * (float(fn(p + 1e-9)) + float(fn(p - 1e-9)))
    radii, counts, widths = [], [], []
    for k in range(levels):
        xs = np.linspace(p - r0, p + r0, grid * (2 ** k) + 1)
        vals = np.array([fn(x) for x in xs], dtype=float) - fp
        eps = r0 * (2.0 ** -k) * 1e-3
        cross = vals[:-1] * vals[1:] < 0
        marked = np.abs(vals) <= eps
        marked[:-1] |= cross
        marked[1:] |= cross
        comp, width = _count_runs(marked, xs)
        radii.append(r0 * (2.0 ** -k))
        counts.append(comp)
        widths.append(width)
    return PropernessReport(float(p), float(fp), radii, counts, widths,
                            _verdict(counts, widths, r0))


def float_path(src):
    """src on the float path, one point at a time, with every evaluation
    error read as NaN (the `proper` command's function before the batched
    probe)."""
    from frontalforge.exprlang import EvalDomainError
    m = MapDef("proper", ("x",), [src])

    def fn(x):
        try:
            return float(m((float(x),))[0])
        except (ZeroDivisionError, ValueError, EvalDomainError,
                OverflowError):
            return math.nan

    return m, fn


PROBE_MAPS = [("x*sin(1/x)", 0.0), ("x^3", 0.0), ("x^2", 0.0),
              ("sin(1/x)", 0.0), ("x^2*sin(1/x)", 0.0), ("sqrt(x)", 0.0),
              ("x*exp(-x^2)", 0.5), ("1/x", 0.1), ("log(x)", 0.3),
              ("tan(x)", 1.0)]


@pytest.mark.parametrize("src, p", PROBE_MAPS)
def test_batched_probe_equals_per_point_probe(src, p):
    # five levels keep the per-point reference at 126,980 float calls
    m, fn = float_path(src)
    batched = properness_probe(lambda xs: m.eval_grid({"x": xs})[0], p,
                               levels=5)
    assert batched.to_json() == per_point_probe(fn, p, levels=5).to_json()


def test_probe_calls_fn_once_per_level():
    shapes = []

    def fn(xs):
        shapes.append(xs.shape)
        return xs ** 3

    rep = properness_probe(fn, 0.0, levels=3, grid=16)
    assert shapes == [(3,), (17,), (33,), (65,)]
    assert rep.counts == [1, 1, 1]


def test_probe_reads_non_finite_values_as_nan():
    # x^2 >= f(0) everywhere, and -inf beyond 0.3: as a value below f(0)
    # it would mark a sign change at 0.3, as NaN it marks nothing
    def fn(xs, beyond=-np.inf):
        return np.where(xs > 0.3, beyond, xs * xs)

    assert properness_probe(fn, 0.0, levels=3, grid=64).counts == [1, 1, 1]
    finite = properness_probe(lambda xs: fn(xs, -1.0), 0.0, levels=3, grid=64)
    assert finite.counts == [2, 2, 2]


def test_probe_needs_a_value_at_p():
    from frontalforge.match import ProbeError
    m = MapDef("f", ("x",), ["log(x)"])
    with pytest.raises(ProbeError, match=r"f\(-1\.0\) is not finite"):
        properness_probe(lambda xs: m.eval_grid({"x": xs})[0], -1.0)
    # 1/x has no value at 0, but its mean at 0 +- 1e-9 is 0
    m = MapDef("f", ("x",), ["1/x"])
    rep = properness_probe(lambda xs: m.eval_grid({"x": xs})[0], 0.0,
                           levels=1)
    assert rep.value == 0.0


@pytest.mark.parametrize("kwargs", [{"r0": -0.5}, {"r0": 0.0},
                                    {"r0": math.nan}, {"r0": math.inf},
                                    {"levels": 0}, {"grid": 0}])
def test_probe_rejects_bad_windows(kwargs):
    calls = []
    with pytest.raises(ValueError):
        properness_probe(lambda xs: calls.append(xs) or xs, 0.0, **kwargs)
    assert calls == []


def test_sample_grid_is_an_array():
    from frontalforge.match import _sample_grid
    line = _sample_grid((Interval(-1.0, 1.0),), 5)
    assert isinstance(line, np.ndarray) and line.shape == (5, 1)
    assert np.array_equal(line[:, 0], np.linspace(-1.0, 1.0, 5))
    dom = (Interval(-1.0, 1.0), Interval(0.0, 0.5))
    square = _sample_grid(dom, 10)
    assert isinstance(square, np.ndarray) and square.shape == (9, 2)
    us, vs = dom[0].grid(3), dom[1].grid(3)
    assert np.array_equal(square, [(u, v) for u in us for v in vs])


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
    # pow) may round differently in the last place.  A transformed germ is
    # the lift of T o f: its per-point image is T(f(x)) and its normal the
    # base germ's, transformed by det(Q) Q
    if hasattr(germ, "T"):
        base_nf = NormalField(germ.germ)
        nf = lambda x: germ.T.det * (germ.T.Q @ base_nf(x))
        f = lambda x: germ.T(germ.germ(x))
    else:
        nf, f = NormalField(germ), germ
    np.testing.assert_allclose(F, [f(tuple(x)) for x in X], rtol=0,
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


class FreshDerivativePlaneMap(PlaneMap):
    """A PlaneMap whose cusp normal derives its map again at every call,
    as it did before the derivative chain was kept on the map."""

    def _raw_normal(self, t):
        dm = self._dmaps[0]
        for k in range(9):
            if k:
                dm = dm.diff(self.map.variables[0])
            d = np.asarray(dm((t,)), dtype=float)
            raw = np.array([-d[1], d[0]])
            if np.linalg.norm(raw) > (1e-12 if k == 0 else 1e-9):
                return raw / np.linalg.norm(raw)
        return None


def test_plane_map_derives_each_order_once(monkeypatch):
    derived = []
    diff = MapDef.diff

    def counted(self, name):
        derived.append(self.name)
        return diff(self, name)

    monkeypatch.setattr(MapDef, "diff", counted)
    pm = plane("flat", ("t^10", "t^15"))
    ts = np.array([0.0, -0.5, 0.0, 0.25])
    pm.lift_points(ts)
    pm.lift_points(ts)
    # the cusp at t = 0 needs every order up to the ninth, once each
    assert len(derived) == 9
    assert len(set(derived)) == len(derived)


@pytest.mark.parametrize("psi", ["(0.7*t)", "(-0.6*t)", "(t+0.2*t^3)",
                                 "(t^3)", "(t^5)"])
@pytest.mark.parametrize("m", [3, 5])
def test_plane_lifts_equal_fresh_derivations(psi, m):
    # the benchmark's plane pairs: f2 = (t^2, t^m), f1 = f2 o psi
    for comps in ((f"{psi}^2", f"{psi}^{m}"), ("t^2", f"t^{m}")):
        md = MapDef("f", ("t",), comps, {})
        kept = PlaneMap(md, Interval(-1.0, 1.0))
        fresh = FreshDerivativePlaneMap(md, Interval(-1.0, 1.0))
        assert np.array_equal(kept._nus, fresh._nus)
        ts = np.concatenate([Interval(-1.0, 1.0).grid(64), [0.0]])
        for a, b in zip(kept.lift_points(ts), fresh.lift_points(ts)):
            assert np.array_equal(a, b)


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
    from frontalforge.numkit import damped_gauss_newton
    germ = catalog("swallowtail")
    rng = np.random.default_rng(2)
    targets = germ.points(rng.uniform(-0.6, 0.6, (10, 2)))
    seeds = rng.uniform(-0.6, 0.6, (10, 2))
    x, res, _ = damped_gauss_newton(germ.points, targets, seeds,
                                    np.array([-1.0, -1.0]),
                                    np.array([1.0, 1.0]), 30)
    for k in range(10):
        ref_res, ref_x = one_point_closest(germ, germ.domain, targets[k],
                                           seeds[k])
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


# ------------------------------------------------------------- sign staging

def two_sign_connecting_map(f1, f2, n1=256, n2=8192):
    """The unstaged sign loop that `connecting_map` replaced: every sample
    polished for e = +1 and again for e = -1, each sign against its own
    signed lift and tree; the smaller sup residual wins.  Returns
    (sign, residual_image, residual_normal, samples_out)."""
    from scipy.spatial import cKDTree
    from frontalforge.match import _domain_of, _polish, _sample_grid
    D1, D2 = _domain_of(f1), _domain_of(f2)
    xs2 = np.array(_sample_grid(D2, n2))
    F2, nu2 = f2.lift_points(xs2)
    F1, nu1 = f1.lift_points(np.array(_sample_grid(D1, n1)))
    best = None
    for e in (1, -1):
        def signed(X):
            F, nu = f2.lift_points(X)
            return np.hstack([F, e * nu])

        tree = cKDTree(np.hstack([F2, e * nu2]))
        x, _ = _polish(signed, np.hstack([F1, nu1])[None], tree, xs2, D2,
                       iters=40)
        x = x[0]
        G, mu = f2.lift_points(x)
        res = (float(np.max(np.linalg.norm(F1 - G, axis=1))),
               float(np.max(np.linalg.norm(nu1 - e * mu, axis=1))))
        if best is None or max(res) < best[0]:
            best = (max(res), e) + res + (x,)
    return best[1:]


def staging_cases():
    # f2 = (t^2, t^m) and f1 = f2 o psi, as in the benchmark's plane pairs
    # with the sign each pair's connecting map has
    pairs = {"scale": ("(-0.7*t)", 3, 1.0), "cubic": ("(t+0.2*t^3)", 3, 1.26),
             "power": ("(t^3)", 5, 1.0)}
    for kind, (psi, m, h2) in pairs.items():
        yield kind, 1, lambda psi=psi, m=m, h2=h2: (
            plane("f1", (f"{psi}^2", f"{psi}^{m}")),
            plane("f2", ("t^2", f"t^{m}"), (-h2, h2)), 64, 2048)
    yield "flip", 1, lambda: (plane("up", ("t^2", "t^3")),
                              plane("dn", ("t^2", "-t^3")), 256, 8192)
    for name, diag, e in (("cuspidal_edge", (1.0, -1.0, 1.0), 1),
                          ("swallowtail", (1.0, -1.0, 1.0), -1),
                          ("cuspidal_cross_cap", (1.0, -1.0, -1.0), -1)):
        yield name, e, lambda name=name, diag=diag: (
            involution_germ(name, diag), catalog(name), 81, 4096)


STAGING_CASES = list(staging_cases())


@pytest.mark.parametrize("kind, e, make", STAGING_CASES,
                         ids=[kind for kind, _, _ in STAGING_CASES])
def test_staged_sign_equals_two_sign_loop(kind, e, make):
    # the losing sign is dropped at seeding from its corner samples, and
    # both signs polish against one unsigned lift; rows evolve
    # independently and the sign flips are exact, so the result keeps
    # every bit
    f1, f2, n1, n2 = make()
    cm = connecting_map(f1, f2, n1=n1, n2=n2)
    sign, res_im, res_nu, x = two_sign_connecting_map(f1, f2, n1, n2)
    assert cm.sign == sign == e
    assert cm.residual_image == res_im and cm.residual_normal == res_nu
    assert np.array_equal(np.array(cm.samples_out), x)


def test_both_signs_failing_at_the_corners():
    from frontalforge.match import ResidualError
    f1, f2 = plane("slow", ("t^6", "t^9")), plane("cusp", ("t^2", "t^3"))
    with pytest.raises(ResidualError) as err:
        connecting_map(f1, f2, tol=1e-20)
    # the losing sign is dropped at seeding; the other survives the net
    # and is polished on every sample, so the reported residual is the
    # sup residual that the two-sign loop reports
    assert str(err.value) == ("connecting map residual %.3e exceeds tol "
                              "1.0e-20" % max(two_sign_connecting_map(
                                  f1, f2)[1:3]))


# ------------------------------------------------------- inclusion failures

@pytest.mark.parametrize("make, gap", [
    (lambda: (plane("lifted", ("t^2", "t^3 + 0.1")),
              plane("cusp", ("t^2", "t^3"))), "1.000e-01"),
    (lambda: (catalog("cuspidal_edge"), catalog("swallowtail")), "7.091e-01"),
], ids=["plane", "surface"])
def test_inclusion_failure_names_the_gap(make, gap):
    # no sign meets tol, and the image of f1 leaves that of f2
    from frontalforge.match import InclusionError
    f1, f2 = make()
    with pytest.raises(InclusionError, match=f"gap {gap}"):
        connecting_map(f1, f2)


def test_successful_map_runs_no_inclusion_polish(monkeypatch):
    # every image residual of a successful map is at most tol, which
    # bounds its distance to the image of f2, so the polish is not run
    import frontalforge.match as ffmatch
    calls = []
    closest = ffmatch.closest_image_point

    def spy(*args, **kwargs):
        calls.append(args[2].shape)
        return closest(*args, **kwargs)

    monkeypatch.setattr(ffmatch, "closest_image_point", spy)
    cm = connecting_map(plane("f1", ("0.49*t^2", "0.343*t^3")),
                        plane("f2", ("t^2", "t^3")))
    assert cm.sign == 1 and calls == []
    with pytest.raises(ffmatch.ResidualError):
        connecting_map(plane("slow", ("t^6", "t^9")),
                       plane("cusp", ("t^2", "t^3")), tol=1e-20)
    # a failing one polishes its 256 image samples once
    assert calls == [(1, 256, 2)]


@pytest.mark.parametrize("make", [
    lambda: (plane("lifted", ("t^2", "t^3 + 0.1")),
             plane("cusp", ("t^2", "t^3"))),
    lambda: (catalog("cuspidal_edge"), catalog("swallowtail")),
], ids=["plane", "surface"])
def test_signs_dropped_at_seeding_run_no_lift_polish(monkeypatch, make):
    # a corner of each sign lies farther than the net radius + 2 tol from
    # every lift sample: the staged lift polish gets no row and evaluates
    # nothing, and only the inclusion polish of the 256 samples runs
    import frontalforge.match as ffmatch
    from frontalforge.match import InclusionError
    calls = []
    solve = ffmatch.damped_gauss_newton

    def counted(fn, target, x0, *args, **kwargs):
        calls.append([len(x0), 0])

        def evaluated(X):
            calls[-1][1] += 1
            return fn(X)

        return solve(evaluated, target, x0, *args, **kwargs)

    monkeypatch.setattr(ffmatch, "damped_gauss_newton", counted)
    f1, f2 = make()
    with pytest.raises(InclusionError):
        connecting_map(f1, f2)
    assert calls[0] == [0, 0]
    assert len(calls) == 2 and calls[1][0] == 256 * 4


# ---------------------------------------------------------------- net radius

def sample_net(name, kind, n=None):
    """The KD-tree of a sample net, the map it samples, and its domain: a
    catalog germ's 4096 lift samples (as in `connecting_involution`) or
    its 128 x 128 image samples (as in `detect_symmetries`), or the n
    lift samples of a plane curve "t^a,t^b" (on [-0.5, 0.5] for the
    `match` example "t^6,t^9", on [-1, 1] otherwise)."""
    from scipy.spatial import cKDTree
    from frontalforge.match import _domain_of, _sample_grid
    from frontalforge.symmetry import _image_tree
    if kind == "image":
        germ = catalog(name)
        return _image_tree(germ)[0], germ.points, germ.domain
    if "," in name:
        obj = plane("c", name.split(","),
                    (-0.5, 0.5) if name == "t^6,t^9" else (-1.0, 1.0))
    else:
        obj = catalog(name)
    domain = _domain_of(obj)
    xs = _sample_grid(domain, n or 4096)
    return (cKDTree(np.hstack(obj.lift_points(xs))),
            lambda X: np.hstack(obj.lift_points(X)), domain)


def net_cases():
    for name in ("cuspidal_edge", "swallowtail", "cuspidal_cross_cap",
                 "ccr_example", "sw_example", "ms_edge"):
        for kind in ("lift", "image"):
            yield pytest.param(name, kind, None, id=f"{name}-{kind}")
    yield pytest.param("cross_cap", "image", None, id="cross_cap-image")
    for name in ("t^2,t^3", "t^2,t^5", "t^6,t^9"):
        yield pytest.param(name, "lift", 2048, id=f"{name}-lift")
        yield pytest.param(name, "lift", 64, id=f"{name}-lift-64")


@pytest.mark.parametrize("name, kind, n", list(net_cases()))
def test_samples_lie_within_the_net_radius_of_the_image(name, kind, n):
    # the polish drops a group whose corner target lies farther than
    # r(s) + 2 tol from every sample s; that is safe when every image
    # point lies within r(s) of some sample s.  The tightest cases sit at
    # a cusp: min over s of |f(y) - s| - r(s) reaches -1.7e-6 for t^2,t^5
    # at n = 2048 (the largest r there is 0.0053), and -5.7e-9 for
    # t^6,t^9 at n = 2048, at this writing
    from frontalforge.match import _net_radii
    tree, fn, domain = sample_net(name, kind, n)
    r = _net_radii(tree, len(domain))
    X = np.random.default_rng(0).uniform([d.lo for d in domain],
                                         [d.hi for d in domain],
                                         (3000, len(domain)))
    Y = fn(X)
    for y, ball in zip(Y, tree.query_ball_point(Y, r.max())):
        assert np.min(np.linalg.norm(tree.data[ball] - y, axis=1) - r[ball],
                      initial=np.inf) <= 0
