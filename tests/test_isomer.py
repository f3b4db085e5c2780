import math

import numpy as np
import pytest

from frontalforge.curve import (arclength_param, center_param, circle,
                                frenet)
from frontalforge.exprlang import MapDef
from frontalforge.isomer import (IsomerError, NotAdmissible,
                                 SymmetryPredicates, admissible,
                                 congruence_count, dual, inverse,
                                 inverse_dual, isomer_set,
                                 right_equivalence_classes)
from frontalforge.normalform import (EdgeNormalForm, NormalFormError,
                                     ScalarProfile, SurfaceProfile)


def edge(crease, theta):
    one = SurfaceProfile.constant(1.0)
    th = theta if isinstance(theta, ScalarProfile) else \
        ScalarProfile.constant(theta)
    return EdgeNormalForm(crease, th, one, one)


@pytest.fixture(scope="module")
def circle_edge():
    return edge(circle(1.0, 1.5), 0.3)


@pytest.fixture(scope="module")
def wavy_edge():
    crease = MapDef("wavy", ("t",), ("cos(t)", "sin(t)", "t + 0.1*sin(2*t)"),
                    {})
    from frontalforge.curve import SpaceCurve
    from frontalforge.numkit import Interval
    base = SpaceCurve(crease, Interval(-1.5, 1.5))
    return edge(center_param(arclength_param(base)), 1.0)


def test_admissible_circle(circle_edge):
    assert admissible(circle_edge) == (True, True)


def test_admissible_fails_at_theta_zero():
    assert admissible(edge(circle(1.0, 1.5), 0.0)) == (False, False)


def test_admissible_wavy(wavy_edge):
    adm, strict = admissible(wavy_edge)
    assert adm and strict
    # the curvature ratio stays under the admissibility bound 1/cos(theta)
    us = wavy_edge.stations(65)
    kap = np.array([frenet(wavy_edge.crease, u).kappa for u in us])
    assert kap.max() / kap.min() < 1.0 / math.cos(1.0)


def test_dual_negates_angle(circle_edge):
    d = dual(circle_edge)
    for u in d.stations(9):
        assert d.theta(u) == pytest.approx(-0.3, abs=1e-14)
        assert np.allclose(d.crease(u), circle_edge.crease(u))


def test_dual_requires_nonvanishing_normal_curvature():
    nf = edge(circle(1.0, 1.5), ScalarProfile.from_expr("0.2*u"))
    with pytest.raises(IsomerError):
        dual(nf)


def test_inverse_angle_law(circle_edge, wavy_edge):
    for nf in (circle_edge, wavy_edge):
        inv = inverse(nf)
        worst = 0.0
        for u in nf.stations(33):
            lhs = frenet(nf.crease, -u).kappa * math.cos(inv.theta(u))
            rhs = frenet(nf.crease, u).kappa * math.cos(nf.theta(u))
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-9
        # sign rule: theta* carries the sign of theta(-u)
        assert math.copysign(1.0, inv.theta(0.2)) == \
            math.copysign(1.0, nf.theta(-0.2))


def test_inverse_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        inverse(edge(circle(1.0, 1.5), 0.0))


def test_angle_only_isomer_has_no_surface(circle_edge):
    for nf in (inverse(circle_edge), inverse_dual(circle_edge)):
        with pytest.raises(NormalFormError, match="a and b are unset"):
            nf.evaluate(0.1, 0.05)
    assert circle_edge.evaluate(0.1, 0.05).shape == (3,)


def test_inverse_dual_composition(circle_edge):
    idl = inverse_dual(circle_edge)
    inv = inverse(circle_edge)
    for u in (-0.4, 0.1, 0.55):
        assert idl.theta(u) == pytest.approx(-inv.theta(u), abs=1e-12)


def test_isomer_set_and_classes(circle_edge):
    iso = isomer_set(circle_edge)
    assert iso.admissible and iso.strict
    assert [name for name, _ in iso.members()] == \
        ["base", "dual", "inverse", "inverse_dual"]
    # rotational symmetry of the circle pairs base~inverse, dual~inverse_dual
    assert right_equivalence_classes(iso) == 2


def test_isomer_set_report(circle_edge):
    rep = isomer_set(circle_edge).report()
    assert set(rep["profiles"]) == {"base", "dual", "inverse",
                                    "inverse_dual"}
    assert rep["admissible"] and rep["strict"]


def test_congruence_table():
    rows = [
        (SymmetryPredicates(), (4, True)),
        (SymmetryPredicates(planar=True, curve_symmetry="negative"),
         (1, True)),
        (SymmetryPredicates(curve_symmetry="positive",
                            metric_symmetry="symmetry"), (1, True)),
        (SymmetryPredicates(curve_symmetry="negative"), (2, False)),
    ]
    for pred, expected in rows:
        assert congruence_count(pred) == expected


def test_predicate_validation():
    with pytest.raises(ValueError):
        SymmetryPredicates(curve_symmetry="sideways")
    with pytest.raises(ValueError):
        SymmetryPredicates(metric_symmetry="almost")
