import math

import numpy as np
import pytest

from frontalforge.curve import circle, frenet, helix
from frontalforge.devfold import (AngleRangeError, DevfoldError, _ruling,
                                  curved_folding, folding_mesh,
                                  gaussian_curvature, ist, second_angle,
                                  strip_isomers, strip_mesh, write_obj,
                                  write_profile_csv)
from frontalforge.isomer import NotAdmissible, dual
from frontalforge.normalform import (EdgeNormalForm, ScalarProfile,
                                     SurfaceProfile)


def edge(crease, theta):
    one = SurfaceProfile.constant(1.0)
    th = theta if isinstance(theta, ScalarProfile) else \
        ScalarProfile.constant(theta)
    return EdgeNormalForm(crease, th, one, one)


@pytest.fixture(scope="module")
def circle_strip():
    return ist(edge(circle(1.0, 1.5), 0.3))


@pytest.fixture(scope="module")
def helix_strip():
    return ist(edge(helix(1.0, 1.0, 1.5),
                    ScalarProfile.from_expr("0.3 + 0.1*sin(u)")))


def test_second_angle_oracle():
    beta = second_angle(math.pi / 4, math.sin(math.pi / 4), 1.0, 0.0)
    assert beta == pytest.approx(math.pi / 4, abs=1e-14)
    # alpha' + tau = 0 puts the ruling orthogonal to the tangent
    assert second_angle(0.3, 0.0, 2.0, 0.0) == pytest.approx(math.pi / 2,
                                                             abs=1e-14)
    # range (0, pi) even for steep cotangent
    assert 0.0 < second_angle(0.1, -50.0, 1.0, 0.0) < math.pi


def test_second_angle_errors():
    with pytest.raises(AngleRangeError):
        second_angle(0.0, 0.1, 1.0, 0.0)
    with pytest.raises(DevfoldError):
        second_angle(0.3, 0.1, 0.0, 0.0)


def test_circle_ruling_oracle(circle_strip):
    # constant angle, zero torsion: beta = pi/2, so the ruling is
    # cos(0.3) n + sin(0.3) b at every station
    for u in circle_strip.stations(9):
        fr = frenet(circle_strip.crease, u)
        expected = math.cos(0.3) * fr.n + math.sin(0.3) * fr.b
        xi = _ruling(circle_strip, circle_strip.frame(u), u)
        assert np.allclose(xi, expected, atol=1e-12)


def test_ruling_unit_and_transversal(helix_strip):
    for u in helix_strip.stations(17):
        xi = _ruling(helix_strip, helix_strip.frame(u), u)
        fr = frenet(helix_strip.crease, u)
        assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
        assert float(xi @ fr.n) > 0.0


def test_strips_are_developable(circle_strip, helix_strip):
    for strip in (circle_strip, helix_strip):
        worst = 0.0
        for u in strip.stations(9)[1:-1]:
            for v in np.linspace(-0.5, 0.5, 5) * strip.halfwidth:
                worst = max(worst, abs(gaussian_curvature(strip, u, v)))
        assert worst < 1e-6


def test_gaussian_curvature_negative_controls():
    cylinder = lambda u, v: np.array([math.cos(u), math.sin(u), v])
    sphere = lambda u, v: np.array([
        math.cos(u) * math.cos(v), math.sin(u) * math.cos(v), math.sin(v)])
    assert abs(gaussian_curvature(cylinder, 0.3, 0.1)) < 1e-6
    assert gaussian_curvature(sphere, 0.3, 0.1) == pytest.approx(1.0,
                                                                 abs=1e-5)


def test_ist_requires_strict_admissibility():
    with pytest.raises(NotAdmissible):
        ist(edge(circle(1.0, 1.5), 0.0))
    with pytest.raises((AngleRangeError, NotAdmissible)):
        ist(edge(circle(1.0, 1.5), ScalarProfile.from_expr("0.3*u")))


def test_strip_isomers_commute(helix_strip):
    iso = strip_isomers(helix_strip)
    assert {"base", "dual"} <= set(iso)
    direct = ist(dual(helix_strip.source_nf), helix_strip.halfwidth)
    worst = 0.0
    for u in direct.stations(9):
        for v in (-0.05, 0.0, 0.05):
            worst = max(worst, float(np.max(np.abs(
                iso["dual"](u, v) - direct(u, v)))))
    assert worst == 0.0


def test_curved_folding_contains_crease(circle_strip):
    fold = curved_folding(circle_strip)
    for u in (-0.6, -0.1, 0.0, 0.4):
        assert np.allclose(fold(u, 0.0), circle_strip.crease(u), atol=1e-12)
    left, right = fold(-0.2, 0.05), fold(0.2, 0.05)
    assert not np.allclose(left, fold.strip(-0.2, 0.05))
    assert np.allclose(right, fold.strip(0.2, 0.05))


def test_curved_folding_v_split(circle_strip):
    fold = curved_folding(circle_strip, split="v")
    assert np.allclose(fold(0.2, 0.05), fold.strip(0.2, 0.05))
    assert np.allclose(fold(0.2, -0.05), fold.dual_strip(0.2, -0.05))
    with pytest.raises(DevfoldError):
        curved_folding(circle_strip, split="w")


def test_meshes_and_obj_export(circle_strip, tmp_path):
    mesh = strip_mesh(circle_strip, nu=9, nv=5)
    assert mesh.vertices.shape == (45, 3)
    assert len(mesh.faces) == 8 * 4
    fold_mesh = folding_mesh(curved_folding(circle_strip), nu=9, nv=5)
    out = tmp_path / "strip.obj"
    write_obj(mesh, out)
    lines = out.read_text().splitlines()
    vlines = [ln for ln in lines if ln.startswith("v ")]
    flines = [ln for ln in lines if ln.startswith("f ")]
    assert len(vlines) == 45 and len(flines) == 32
    assert all(len(ln.split()) == 4 for ln in vlines)
    assert all(len(ln.split()) == 5 for ln in flines)
    assert fold_mesh.vertices.shape == (45, 3)


def test_profile_csv(circle_strip, tmp_path):
    out = tmp_path / "profile.csv"
    write_profile_csv(circle_strip, out)
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ["u", "alpha", "beta", "kappa", "tau"]
    assert len(lines) == 130
    row = [float(x) for x in lines[8].split(",")]
    assert row[1] == pytest.approx(0.3, abs=1e-12)
    assert row[2] == pytest.approx(math.pi / 2, abs=1e-10)
