"""Tests of the benchmark's oracles and checks.

    python3 -m pytest -q bench/test_oracles.py

The oracles are tested against the definitions they encode (Frenet
equations, T o f = f o psi, normals orthogonal to the differential), and
every check is shown to pass on exact values and to fail once any checked
output moves by 1e-6.
"""
import copy
import os
import sys
from types import SimpleNamespace as NS

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import oracles as orc  # noqa: E402
from oracles import CheckFailure  # noqa: E402

CURVES = [orc.Circle(1.0), orc.Circle(1.37), orc.Helix(1.0, 0.6),
          orc.Helix(0.85, 0.75)]
US = np.linspace(-0.9, 0.9, 7)
H = 1e-5


def _d(fn, u):
    return (fn(u + H) - fn(u - H)) / (2 * H)


@pytest.mark.parametrize("curve", CURVES)
def test_frenet_equations(curve):
    fr = curve.frame(US)
    e, n, b = fr[:, 0], fr[:, 1], fr[:, 2]
    assert np.allclose(np.einsum("kij,klj->kil", fr, fr), np.eye(3), atol=1e-14)
    assert np.allclose(np.cross(e, n), b, atol=1e-14)
    assert np.allclose(_d(curve.point, US), e, atol=1e-9)
    k, t = curve.kappa(US)[:, None], curve.tau(US)[:, None]
    assert np.allclose(_d(lambda u: curve.frame(u)[:, 0], US), k * n, atol=1e-9)
    assert np.allclose(_d(lambda u: curve.frame(u)[:, 1], US),
                       -k * e + t * b, atol=1e-9)
    assert np.allclose(_d(lambda u: curve.frame(u)[:, 2], US), -t * n, atol=1e-9)


def _edge(curve):
    a = orc.Poly2([(1.1, 0, 0), (0.1, 1, 0), (-0.15, 0, 1), (0.05, 1, 1)])
    b = orc.Poly2([(0.7, 0, 0), (-0.1, 1, 0), (0.2, 0, 1), (0.1, 2, 0)])
    return orc.EdgeSurface(curve, 0.4, 0.1, a, b)


@pytest.mark.parametrize("curve", CURVES)
def test_edge_surface_pointwise(curve):
    surf = _edge(curve)
    vs = np.linspace(-0.15, 0.15, 5)
    U, V = np.meshgrid(US, vs, indexing="ij")
    grid = surf(U, V)
    for i, u in enumerate(US):
        e, n, bn = curve.frame(u)
        th = 0.4 + 0.1 * np.sin(u)
        D = np.cos(th) * n - np.sin(th) * bn
        Dp = np.sin(th) * n + np.cos(th) * bn
        for j, v in enumerate(vs):
            want = (curve.point(u) + v * v * surf.a(u, v) * D
                    + v ** 3 * surf.b(u, v) * Dp)
            assert np.allclose(grid[i, j], want, atol=1e-15)
        # the section through c(u) lies in the normal plane to second order
        assert abs(e @ D) < 1e-15 and abs(e @ Dp) < 1e-15


def test_beta_solves_cotangent_identity():
    for curve in CURVES:
        surf = _edge(curve)
        beta = surf.beta(US)
        assert np.all((beta > 0) & (beta < np.pi))
        res = orc.cotangent_residual(beta, surf.theta(US), surf.theta_prime(US),
                                     curve.kappa(US), curve.tau(US))
        assert np.max(np.abs(res)) < 1e-14


def test_poly2_source_matches():
    p = orc.Poly2([(0.25, 0, 0), (-1.5, 2, 0), (0.125, 1, 3)])
    u, v = 0.3, -0.7
    assert eval(p.source().replace("^", "**")) == pytest.approx(p(u, v), abs=1e-15)
    assert p.du()(u, v) == pytest.approx(-3.0 * u + 0.125 * v ** 3)
    assert p.dv()(u, v) == pytest.approx(0.375 * u * v ** 2)


MS = {"a0": orc.Poly2([(0.3, 2, 0)]),
      "b0": orc.Poly2([(-0.8, 0, 0), (0.2, 2, 0)]),
      "b2": orc.Poly2([(0.4, 1, 0), (-0.3, 3, 0)]),
      "b3": orc.Poly2([(1.2, 0, 0), (0.1, 2, 0), (-0.25, 0, 1)])}
ENTRIES = [(name, None) for name in orc.CATALOG_TABLE] + [
    ("sw_example", {"b": 0.7, "c": -1.3}),
    ("sw_example", {"b": -1.2, "c": 0.6}),
    ("ms_edge", MS)]


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


@pytest.mark.parametrize("name,params", ENTRIES)
def test_symmetry_table(name, params):
    f, nu, table = orc.symmetry_entry(name, params)
    g = np.linspace(-0.45, 0.45, 9)
    U, V = np.meshgrid(g, g, indexing="ij")
    # nu is a normal: orthogonal to f_u and f_v
    fu = (f(U + H, V) - f(U - H, V)) / (2 * H)
    fv = (f(U, V + H) - f(U, V - H)) / (2 * H)
    n = _unit(nu(U, V))
    assert np.max(np.abs(np.sum(fu * n, -1))) < 1e-8
    assert np.max(np.abs(np.sum(fv * n, -1))) < 1e-8
    assert np.allclose(f(0.0, 0.0), 0.0)
    for s in table:
        Q = s.Q
        assert np.allclose(Q @ Q.T, np.eye(3)) and np.allclose(Q @ Q, np.eye(3))
        PU, PV = s.psi(U, V)
        assert np.allclose(np.stack(s.psi(PU, PV)), np.stack([U, V]))
        assert np.max(np.abs(f(U, V) @ Q.T - f(PU, PV))) < 1e-12
        lhs = np.linalg.det(Q) * n @ Q.T
        assert np.max(np.abs(lhs - s.e * _unit(nu(PU, PV)))) < 1e-12
    assert orc.closed_under_composition([s.Q for s in table])


def test_closure_rejects_half_sets():
    i, ii, _ = orc.EDGE_SYMMETRIES
    assert not orc.closed_under_composition([i.Q, ii.Q])


def _plane_normal(fn, t):
    """Continuous normal of a plane curve with its one cusp at 0: the
    rotated tangent, flipped for t < 0 where the tangent has reversed."""
    d = (fn(t + H) - fn(t - H)) / (2 * H)
    return np.sign(t) * _unit(np.stack([-d[..., 1], d[..., 0]], axis=-1))


@pytest.mark.parametrize("pair", [
    orc.PlanePair(3, "scale", c=0.7), orc.PlanePair(5, "scale", c=-0.6),
    orc.PlanePair(3, "cubic", c=0.25), orc.PlanePair(5, "cubic", c=0.1),
    orc.PlanePair(3, "power", k=3), orc.PlanePair(5, "power", k=5)])
def test_plane_pairs(pair):
    ts = np.linspace(-1.0, 1.0, 41)
    assert np.max(np.abs(pair.psi(ts))) <= pair.h2
    src = pair.psi_source().replace("^", "**")
    assert np.allclose(eval(src, {"t": ts}), pair.psi(ts), atol=1e-15)
    f1 = [eval(s.replace("^", "**"), {"t": ts}) for s in pair.f1_sources()]
    assert np.allclose(np.stack(f1, -1), pair.f2(pair.psi(ts)), atol=1e-14)
    # both normals are anchored to the rotated tangent at the right end
    assert np.allclose(pair.dpsi(ts), (pair.psi(ts + H) - pair.psi(ts - H))
                       / (2 * H), atol=1e-8)
    for t in (-0.8, 0.3, 0.9):
        n1 = _plane_normal(pair.f1, t)
        n2 = _plane_normal(pair.f2, float(pair.psi(t)))
        assert np.allclose(n1, pair.e * n2, atol=1e-6)


# ------------------------------------------------- checks catch 1e-6 moves

def _fails(check, out):
    with pytest.raises(CheckFailure):
        check(out)


def _perturbed(out, path):
    """Deep copy of a nested output with the element at `path` moved."""
    out = copy.deepcopy(out)
    *head, last = path
    obj = out
    for key in head:
        obj = obj[key] if isinstance(obj, (dict, list, tuple)) else getattr(obj, key)
    if isinstance(obj, np.ndarray):
        obj[last] += 1e-6
    elif isinstance(obj, dict):
        obj[last] = obj[last] + 1e-6
    else:
        setattr(obj, last, getattr(obj, last) + 1e-6)
    return out


@pytest.fixture(scope="module")
def wl():
    pytest.importorskip("frontalforge")
    import workloads
    return workloads


@pytest.mark.parametrize("crease", ["circle", "helix"])
def test_roundtrip_check(wl, crease):
    p = wl.draw_edge(np.random.default_rng(5), crease)
    ref = wl.edge_oracle(p)
    ns, nv = wl.ROUNDTRIP_GRID
    us = np.linspace(-wl.SPAN, wl.SPAN, ns)
    vs = np.linspace(-wl.HALFWIDTH, wl.HALFWIDTH, nv)
    U, V = np.meshgrid(us, vs, indexing="ij")
    out = {"nf": NS(station_samples=us, theta_samples=ref.theta(us),
                    a=NS(grid=(us, vs, ref.a(U, V))),
                    b=NS(grid=(us, vs, ref.b(U, V)))),
           "invariants": [{"kappa": float(ref.crease.kappa(u)),
                           "tau": float(ref.crease.tau(u))} for u in us]}
    check = wl.roundtrip_op(p).check
    check(out)
    for path in (("nf", "theta_samples", 1), ("invariants", 2, "kappa"),
                 ("invariants", 0, "tau"), ("nf", "a", "grid", 2, (1, 2)),
                 ("nf", "b", "grid", 2, (2, 0))):
        _fails(check, _perturbed(out, path))


def _write_obj(path, vertices):
    with open(path, "w") as fh:
        for p in vertices:
            fh.write("v %.9g %.9g %.9g\n" % tuple(p))


@pytest.mark.parametrize("crease", ["circle", "helix"])
def test_export_check(wl, crease, tmp_path):
    p = wl.draw_edge(np.random.default_rng(5), crease)
    ref = wl.edge_oracle(p)
    nu, nv = wl.SURFACE_MESH
    us = np.linspace(-wl.SPAN, wl.SPAN, nu)
    vs = np.linspace(-wl.HALFWIDTH, wl.HALFWIDTH, nv)
    U, V = np.meshgrid(us, vs, indexing="ij")
    verts = ref(U, V).reshape(-1, 3)
    surface_obj = str(tmp_path / "surface.obj")
    fold_obj = str(tmp_path / "fold.obj")
    _write_obj(surface_obj, verts)
    _write_obj(fold_obj, np.zeros((6, 3)))
    st = np.linspace(-wl.SPAN, wl.SPAN, wl.STRIP_STATIONS)
    out = {"mesh": NS(us=us, vs=vs, vertices=verts), "surface_obj": surface_obj,
           "K": np.zeros((7, 5)), "stations": st, "betas": ref.beta(st),
           "crease": ref.crease.point(st), "dual_theta": -ref.theta(st),
           "isomers": NS(members=lambda: [("base", 0), ("dual", 0),
                                          ("inverse", 0), ("inverse_dual", 0)]),
           "files": [fold_obj], "fold_mesh": NS(vertices=np.zeros((6, 3)))}
    check = wl.export_op(p, str(tmp_path)).check
    check(out)
    for path in (("mesh", "vertices", (40, 1)), ("K", (3, 2)), ("betas", 4),
                 ("crease", (2, 0)), ("dual_theta", 5)):
        _fails(check, _perturbed(out, path))
    moved = verts.copy()
    moved[17, 2] += 1e-6
    _write_obj(surface_obj, moved)
    _fails(check, out)


@pytest.mark.parametrize("name,params", ENTRIES)
def test_symmetry_check(wl, name, params):
    _, _, table = orc.symmetry_entry(name, params)
    out = {"findings": [NS(label=s.label, isometry=NS(Q=s.Q.copy(),
                                                       b=np.zeros(3)))
                        for s in table], "failures": []}
    check = wl.symmetry_op(name, params).check
    check(out)
    for k in range(len(table)):
        _fails(check, _perturbed(out, ("findings", k, "isometry", "Q", (0, 0))))
        _fails(check, _perturbed(out, ("findings", k, "isometry", "b", 1)))
    _fails(check, dict(out, failures=["a rule"]))
    _fails(check, dict(out, findings=out["findings"][:-1] or [
        NS(label="i", isometry=NS(Q=np.eye(3), b=np.zeros(3)))]))


@pytest.mark.parametrize("pair", [orc.PlanePair(3, "cubic", c=0.2),
                                  orc.PlanePair(5, "power", k=3)])
def test_plane_check(wl, pair):
    ts = np.linspace(-1.0, 1.0, 9)
    cm = NS(samples_in=[(t,) for t in ts],
            samples_out=np.array([(float(pair.psi(t)),) for t in ts]),
            sign=pair.e)
    check = wl.plane_op(pair).check
    check({"psi": cm})
    _fails(check, _perturbed({"psi": cm}, ("psi", "samples_out", (3, 0))))
    _fails(check, _perturbed({"psi": cm}, ("psi", "sign")))


@pytest.mark.parametrize("name,label,params", [
    ("cuspidal_cross_cap", "ii", None), ("ccr_example", "ii", None),
    ("ms_edge", "ii", MS)])
def test_involution_check(wl, name, label, params):
    _, _, table = orc.symmetry_entry(name, params)
    sym = next(s for s in table if s.label == label)
    g = np.linspace(-1.0, 1.0, 5)
    x = np.array([(u, v) for u in g for v in g])
    psi = NS(samples_in=[tuple(r) for r in x],
             samples_out=np.stack(sym.psi(x[:, 0], x[:, 1]), axis=-1))
    out = {"report": {"psi": psi, "sign": sym.e}}
    check = wl.involution_op(name, label, params).check
    check(out)
    _fails(check, _perturbed(out, ("report", "psi", "samples_out", (7, 1))))
    _fails(check, _perturbed(out, ("report", "sign")))
