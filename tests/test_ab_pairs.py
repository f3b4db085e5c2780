"""The pair summary of tools/ab_pairs.py, on fixed numbers; no benchmark
runs."""
import importlib.util
from pathlib import Path

import pytest


def _ab_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
    spec = importlib.util.spec_from_file_location("ab_pairs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_summary_quartiles_wins_and_claim():
    ab = _ab_pairs()
    parent = [{"op_p50_s": v, "ops_per_s": 1 / v}
              for v in (0.024, 0.023, 0.025, 0.024, 0.022,
                        0.026, 0.024, 0.023, 0.025, 0.024)]
    change = [{"op_p50_s": v, "ops_per_s": 1 / v}
              for v in (0.018, 0.019, 0.018, 0.024, 0.017,
                        0.018, 0.019, 0.018, 0.020, 0.018)]
    s = ab.summarize(parent, change, higher_is_better=("ops_per_s",))
    lat = s["op_p50_s"]
    assert lat["parent"] == pytest.approx((0.02325, 0.024, 0.02475))
    assert lat["change"] == pytest.approx((0.018, 0.018, 0.01900))
    # pair 4 is a tie (0.024 against 0.024): it counts for neither side
    assert (lat["wins"], lat["losses"], lat["pairs"]) == (9, 0, 10)
    assert lat["claim"]
    # the reciprocal is better higher: the same wins
    assert (s["ops_per_s"]["wins"], s["ops_per_s"]["losses"]) == (9, 0)
    assert s["ops_per_s"]["claim"]


def test_summary_refuses_a_gain_inside_the_parent_spread():
    ab = _ab_pairs()
    parent = [{"op_p50_s": v} for v in (0.020, 0.030, 0.020, 0.030)]
    change = [{"op_p50_s": v} for v in (0.019, 0.029, 0.019, 0.029)]
    s = ab.summarize(parent, change)["op_p50_s"]
    # the change wins every pair, but its median gain of 0.001 s is
    # smaller than the parent's quartile distance of 0.01 s
    assert s["wins"] == 4 and not s["claim"]
    one = ab.summarize([{"m": 2.0}], [{"m": 3.0}])["m"]
    assert one["parent"] == (2.0, 2.0, 2.0) and one["losses"] == 1
    with pytest.raises(ValueError):
        ab.summarize([{"m": 1.0}], [])


def _runs(values):
    return [{"op_p50_s": v, "ops_per_s": 1 / v} for v in values]


def test_verdict_worse_ok_and_unresolved():
    ab = _ab_pairs()
    higher = ("ops_per_s",)
    # parent median 0.020 s, quartiles 0.020-0.02075: narrower than the
    # bound of 0.25 x 0.020 = 0.005 s
    parent = _runs((0.020, 0.021, 0.019, 0.020, 0.020, 0.021))
    s = ab.summarize(parent, _runs([0.026] * 6), higher)
    # 0.006 s slower is beyond the bound; 50 -> 38.5 ops/s is within the
    # 12.5 ops/s that the same bound allows on the reciprocal
    assert ab.verdict(s["op_p50_s"], 0.25) == "worse"
    assert ab.verdict(s["ops_per_s"], 0.25) == "ok"
    s = ab.summarize(parent, _runs([0.0205] * 6), higher)
    assert ab.verdict(s["op_p50_s"], 0.25) == "ok"
    # a parent spread of 0.0075 s (quartiles 0.01625-0.02375) exceeds the
    # bound: a change inside it cannot be told from the parent ...
    wide = _runs((0.015, 0.025, 0.015, 0.025, 0.020, 0.020))
    s = ab.summarize(wide, _runs([0.019] * 6), higher)
    assert ab.verdict(s["op_p50_s"], 0.25) == "unresolved"
    # ... unless every run of the change is better than every parent run
    s = ab.summarize(wide, _runs([0.014] * 6), higher)
    assert s["op_p50_s"]["beats_all"]
    assert ab.verdict(s["op_p50_s"], 0.25) == "ok"
    assert ab.verdict(s["ops_per_s"], 0.25) == "ok"
