"""Station arrays: one Frenet call per station set, on every kind of crease."""
import json
import sys

import numpy as np
import pytest

from frontalforge import curve as ffcurve
from frontalforge.cli import main
from frontalforge.curve import (SpaceCurve, arclength_param, center_param,
                                circle, frenet, helix, spline_curve)
from frontalforge.devfold import (curved_folding, folding_mesh,
                                  gaussian_curvature, ist, strip_mesh)
from frontalforge.exprlang import MapDef
from frontalforge.germ import catalog
from frontalforge.isomer import _reverse_crease, isomer_set
from frontalforge.normalform import (EdgeNormalForm, ScalarProfile,
                                     SurfaceProfile, to_normal_form)
from frontalforge.numkit import Interval


def _wavy():
    m = MapDef("wavy", ("t",), ("cos(t)", "sin(t)", "t + 0.1*sin(2*t)"))
    return center_param(arclength_param(SpaceCurve(m, Interval(-1.5, 1.5))))


def _spline():
    us = np.linspace(-1.0, 1.0, 33)
    return spline_curve(us, helix(1.0, 0.5, 1.0)(us))


CREASES = {
    "circle": lambda: circle(1.3, 1.5),
    "helix": lambda: helix(1.0, 0.5, 1.5),
    "wavy_arclength": _wavy,
    "spline": _spline,
    "ms_edge": lambda: to_normal_form(catalog("ms_edge"), n_stations=5,
                                      nv=5).crease,
}


@pytest.fixture(scope="module", params=sorted(CREASES))
def crease(request):
    return CREASES[request.param]()


FIELDS = ("point", "e", "n", "b", "kappa", "tau")


def _stations(c):
    return 0.9 * c.domain.grid(9)


@pytest.mark.parametrize("reverse", [False, True])
def test_array_rows_match_single_stations(crease, reverse):
    c = _reverse_crease(crease) if reverse else crease
    us = _stations(c)
    fr = frenet(c, us)
    for k, u in enumerate(us):
        one = frenet(c, u)
        assert isinstance(one.kappa, float) and one.point.shape == (3,)
        for name in FIELDS:
            np.testing.assert_allclose(getattr(fr, name)[k],
                                       getattr(one, name), rtol=0,
                                       atol=1e-14, err_msg=name)


def test_reversal_laws(crease):
    us = _stations(crease)
    fr = frenet(crease, -us)
    rev = frenet(_reverse_crease(crease), us)
    for name, sign in (("point", 1), ("kappa", 1), ("tau", 1), ("e", -1),
                       ("n", 1), ("b", -1)):
        np.testing.assert_allclose(getattr(rev, name),
                                   sign * getattr(fr, name), rtol=0,
                                   atol=1e-12, err_msg=name)


def test_vanishing_curvature_names_the_first_failing_station():
    # (t, t^3, 0) is straight at t = 0 only
    c = SpaceCurve(MapDef("cubic", ("t",), ("t", "t^3", "0")),
                   Interval(-1.0, 1.0))
    with pytest.raises(ffcurve.VanishingCurvature, match="u=0.0"):
        frenet(c, np.array([-0.5, 0.0, 0.5]))


# ------------------------------------------------------------ structure guard

def _edge():
    one = SurfaceProfile.constant(1.0)
    return EdgeNormalForm(helix(1.0, 1.0, 1.5),
                          ScalarProfile.from_expr("0.3 + 0.1*sin(u)"), one, one)


@pytest.fixture
def calls(monkeypatch):
    """`calls(fn)` runs fn and returns its result with the counts of
    MapDef.eval_jet and curve.frenet calls, wherever the program's modules
    bind them."""
    counts = {"eval_jet": 0, "frenet": 0}
    jet, fren = MapDef.eval_jet, ffcurve.frenet

    def counted_jet(self, *args, **kwargs):
        counts["eval_jet"] += 1
        return jet(self, *args, **kwargs)

    def counted_frenet(*args, **kwargs):
        counts["frenet"] += 1
        return fren(*args, **kwargs)

    monkeypatch.setattr(MapDef, "eval_jet", counted_jet)
    for name, mod in list(sys.modules.items()):
        if name.startswith("frontalforge") and \
                getattr(mod, "frenet", None) is fren:
            monkeypatch.setattr(mod, "frenet", counted_frenet)

    def measure(fn):
        counts.update(eval_jet=0, frenet=0)
        out = fn()
        return out, dict(counts)

    return measure


def test_edge_layer_makes_no_jets_and_a_fixed_number_of_frenet_calls(calls):
    nf = _edge()
    strip = ist(nf, n_check=9)
    fold = curved_folding(strip)
    ops = {
        "isomer_set": lambda n: isomer_set(nf, n),
        "ist": lambda n: ist(nf, n_check=n),
        "strip_mesh": lambda n: strip_mesh(strip, nu=n, nv=5),
        "folding_mesh": lambda n: folding_mesh(fold, nu=n, nv=5),
        "gaussian_curvature": lambda n: gaussian_curvature(
            strip, strip.stations(n)[:, None], np.array([-0.05, 0.05])),
    }
    for name, op in ops.items():
        (_, few), (_, many) = calls(lambda: op(9)), calls(lambda: op(33))
        assert few["eval_jet"] == many["eval_jet"] == 0, name
        assert few["frenet"] == many["frenet"] > 0, name


@pytest.mark.parametrize("sub", ["strip", "isomers", "fold"])
def test_cli_edge_commands_make_no_jets(calls, sub, tmp_path, capsys):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(
        {"germs": {"edge": {"normal_form": _edge().to_json()}}}))
    code, counts = calls(
        lambda: main([sub, "--scene", str(scene), "--germ", "edge"]))
    capsys.readouterr()
    assert code == 0
    assert counts["eval_jet"] == 0
    # every command samples at least 17 stations; a per-station loop would
    # make at least that many calls
    assert 0 < counts["frenet"] < 17


def test_extracted_crease_takes_one_jet_per_station_set(calls):
    # the edge of a germ is differentiated by one jet over all stations
    crease = CREASES["ms_edge"]()
    _, counts = calls(lambda: frenet(crease, _stations(crease)))
    assert counts["eval_jet"] == 1


def test_isomer_set_takes_one_frenet_call(calls):
    # the dual has the edge's kappa and |theta|, so one Frenet call on the
    # stations decides the admissibility of every member
    iso, counts = calls(lambda: isomer_set(_edge(), 33))
    assert [name for name, _ in iso.members()] == [
        "base", "dual", "inverse", "inverse_dual"]
    assert counts["frenet"] == 1


def test_ist_takes_one_frenet_call(calls):
    # admissibility, the angle range and the focal truncation read the
    # same station data
    strip, counts = calls(lambda: ist(_edge(), n_check=33))
    assert strip.halfwidth == _edge().halfwidth
    assert counts["frenet"] == 1


@pytest.mark.parametrize("name", ["circle", "helix"])
def test_derivatives_run_one_map_per_call(name, monkeypatch):
    # c, c', ..., c^(order) are the components of one map: one checked
    # grid run per call, with the values of differentiating one order at
    # a time
    c = CREASES[name]()
    us = _stations(c)
    var = c.map.variables[0]
    chain = [c.map]
    for _ in range(3):
        chain.append(chain[-1].diff(var))
    runs = []
    values = MapDef.values

    def counted(self, arrays):
        runs.append(self.name)
        return values(self, arrays)

    monkeypatch.setattr(MapDef, "values", counted)
    for order in range(4):
        runs.clear()
        d = c.derivatives(us, order)
        assert len(runs) == 1 and d.shape == (order + 1, len(us), 3)
        for k in range(order + 1):
            assert np.array_equal(d[k], values(chain[k], {var: us}).T)
