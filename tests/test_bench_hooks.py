"""The benchmark's tracer wraps program functions by name: every name it
lists must still resolve, and uninstalling must restore the originals."""
import importlib.util
from pathlib import Path

import frontalforge.cli  # noqa: F401  (imports every program module)


def _tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_hooks_resolve_and_uninstall():
    tracing = _tracing()
    names = list(tracing.SPANS.values()) + list(tracing.COUNTS.values()) \
        + [tracing.LIFT_FACTORY]
    originals = [tracing._resolve(*name)[1] for name in names]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [tracing._resolve(*name)[1] for name in names]
    finally:
        tracer.uninstall()
    assert all(w is not o for w, o in zip(wrapped, originals))
    restored = [tracing._resolve(*name)[1] for name in names]
    assert all(r is o for r, o in zip(restored, originals))


def test_tracer_counts_a_batched_jet_once():
    # one jet over three rows is one MapDef.eval_jet call, and its
    # truncated products still reach the Series.__mul__ counter
    import numpy as np

    from frontalforge.exprlang import MapDef
    tracing = _tracing()
    tracer = tracing.Tracer()
    m = MapDef("m", ("u", "v"), ["u*v^2", "sin(u)*v"])
    tracer.install()
    try:
        m.eval_jet(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), 3)
    finally:
        tracer.uninstall()
    assert tracer.counts["exprlang.eval_jet.calls"] == 1
    assert tracer.counts["numkit.series_mul.calls"] > 0


def test_tracer_sees_the_detection_solve():
    # every probe of every kept candidate is polished in one solve inside
    # the one closest-point call: its rows must run within that traced
    # span, or they would vanish from the per-layer figures
    from frontalforge import match, symmetry
    from frontalforge.germ import catalog
    tracing = _tracing()
    tracer = tracing.Tracer()
    germ = catalog("swallowtail")
    solve = match.damped_gauss_newton
    calls = []

    def spy(fn, target, x0, *args, **kwargs):
        calls.append((len(x0), tracer.names[tracer.name_id[tracer.stack[-1]]]))
        return solve(fn, target, x0, *args, **kwargs)

    tracer.install()
    match.damped_gauss_newton = spy
    try:
        symmetry.detect_symmetries(germ)
    finally:
        match.damped_gauss_newton = solve
        tracer.uninstall()
    assert tracer.counts["symmetry.detect_symmetries.calls"] == 1
    assert tracer.counts["match.closest_image_point.calls"] == 1
    # 3 of the 4 candidates are dropped at seeding; the 121 probes of the
    # fourth, 4 seeds each (2 x 4 corner rows, then 117 x 4, before)
    assert calls == [(121 * 4, "match.closest_image_point")]


def test_tracer_pins_the_work_of_one_involution():
    # the losing normal sign is polished on the corner samples only, and a
    # solver step evaluates its trial points and their shifts in one call:
    # 200,355 grid points when every sample was polished for both signs
    # and the shifts were a separate call
    import numpy as np

    from frontalforge import symmetry
    from frontalforge.geom import Isometry
    from frontalforge.germ import catalog
    tracing = _tracing()
    tracer = tracing.Tracer()
    germ = catalog("cuspidal_edge")
    tracer.install()
    try:
        symmetry.connecting_involution(germ, Isometry(np.diag([1.0, -1.0, 1.0])))
    finally:
        tracer.uninstall()
    assert tracer.counts["match.connecting_map.calls"] == 1
    assert tracer.counts["exprlang.eval_grid.points"] < 100_000
