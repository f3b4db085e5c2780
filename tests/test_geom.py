import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontalforge.geom import (GermFrame, Isometry, LABEL_TO_CASE, Line,
                               Plane, make_reflection, make_rotation180)


def frame():
    return GermFrame(origin=np.zeros(3), tangent=(0.0, 0.0, 1.0),
                     normal=(0.0, 1.0, 0.0), cusp_direction=None)


def test_reflection_is_involution():
    T = make_reflection(Plane((0.5, 0.0, 0.0), (1.0, 0.0, 0.0)))
    assert np.allclose(T.Q @ T.Q, np.eye(3), rtol=0, atol=1e-10)
    assert np.allclose(T.Q @ T.b, -T.b, rtol=0, atol=1e-10)
    p = np.array([2.0, 1.0, -1.0])
    assert np.allclose(T(p), [-1.0, 1.0, -1.0])
    assert T.det == pytest.approx(-1.0)


def test_rotation180_is_involution():
    T = make_rotation180(Line((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
    assert np.allclose(T.Q @ T.Q, np.eye(3), rtol=0, atol=1e-10)
    assert np.allclose(T.Q @ T.b, -T.b, rtol=0, atol=1e-10)
    assert np.allclose(T((1.0, 2.0, 3.0)), [-1.0, -2.0, 3.0])
    assert T.det == pytest.approx(1.0)


def test_isometry_compose_inverse():
    T = make_reflection(Plane((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
    S = make_rotation180(Line((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)))
    TS = T.compose(S)
    p = np.array([0.3, -0.7, 1.1])
    assert np.allclose(TS(p), T(S(p)))


def _floats(lo, hi, n):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


# Q from the QR factorization of a drawn matrix, b drawn in [-5, 5]^3
_isometries = st.builds(
    lambda A, b: Isometry(np.linalg.qr(A.reshape(3, 3))[0], b),
    _floats(-1.0, 1.0, 9), _floats(-5.0, 5.0, 3))
_LAWS = settings(max_examples=100, deadline=None, derandomize=True)


def _assert_same(S, T, tol=1e-12):
    np.testing.assert_allclose(S.Q, T.Q, rtol=0, atol=tol)
    np.testing.assert_allclose(S.b, T.b, rtol=0, atol=tol)


@_LAWS
@given(_isometries, _isometries, _isometries)
def test_isometry_compose_is_associative(R, S, T):
    _assert_same(R.compose(S).compose(T), R.compose(S.compose(T)))


@_LAWS
@given(_isometries, _isometries)
def test_isometry_det_is_multiplicative(S, T):
    assert abs(T.compose(S).det - T.det * S.det) <= 1e-12


@_LAWS
@given(_isometries)
def test_isometry_json_round_trip_is_exact(T):
    T2 = Isometry.from_json(T.to_json())
    assert T2.Q.tobytes() == T.Q.tobytes() and T2.b.tobytes() == T.b.tobytes()


def test_isometry_rejects_non_orthogonal():
    with pytest.raises(Exception):
        Isometry(np.array([[1.0, 1.0, 0.0],
                           [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0]]), np.zeros(3))


def test_frame_candidates_are_involutions_fixing_origin():
    fr = frame()
    for label, T in fr.candidate_isometries().items():
        assert np.allclose(T.Q @ T.Q, np.eye(3), rtol=0, atol=1e-10)
        assert np.allclose(T.Q @ T.b, -T.b, rtol=0, atol=1e-10)
        assert np.max(np.abs(T(fr.origin) - fr.origin)) <= 1e-10
        assert label in LABEL_TO_CASE


def test_cuspidal_edge_frame_matrices():
    # standard edge at the origin: tangent z, normal y, conormal -x
    fr = frame()
    cands = fr.candidate_isometries()
    assert np.allclose(cands["refl_Pi0"].Q, np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(cands["refl_Pi1"].Q, np.diag([1.0, 1.0, -1.0]))
    assert np.allclose(cands["refl_Pi2"].Q, np.diag([-1.0, 1.0, 1.0]))
    assert np.allclose(cands["rot180_l2"].Q, np.diag([1.0, -1.0, -1.0]))


def test_json_round_trip():
    T = make_reflection(Plane((0.1, 0.2, 0.3), (0.0, 1.0, 0.0)))
    T2 = Isometry.from_json(T.to_json())
    p = np.array([0.4, -0.5, 0.6])
    assert np.allclose(T(p), T2(p))
