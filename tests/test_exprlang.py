import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from frontalforge import exprlang as ex
from frontalforge.numkit import DomainViolation, Series


def test_parse_and_evaluate():
    e = ex.parse("3*u + v^2 - 1")
    assert ex.evaluate(e, {"u": 2.0, "v": 3.0}) == pytest.approx(14.0)


def test_power_right_associative():
    e = ex.parse("2^3^2")
    assert ex.evaluate(e, {}) == pytest.approx(512.0)


def test_unary_minus_binds_before_power():
    # the grammar parses -u^2 as (-u)^2
    e = ex.parse("-u^2")
    assert ex.evaluate(e, {"u": 3.0}) == pytest.approx(9.0)


def test_constants():
    assert ex.evaluate(ex.parse("pi"), {}) == pytest.approx(math.pi)
    assert ex.evaluate(ex.parse("e"), {}) == pytest.approx(math.e)


def test_functions():
    e = ex.parse("sin(u)^2 + cos(u)^2")
    assert ex.evaluate(e, {"u": 0.7}) == pytest.approx(1.0)
    e = ex.parse("atan(tan(u))")
    assert ex.evaluate(e, {"u": 0.4}) == pytest.approx(0.4)


def test_syntax_error_offset():
    with pytest.raises(ex.ExprSyntaxError):
        ex.parse("u + * v")


def test_unknown_function():
    with pytest.raises(ex.UnknownFunctionError):
        ex.parse("sinh(u)")


def test_domain_error():
    with pytest.raises((ex.EvalDomainError, ValueError, ZeroDivisionError)):
        ex.evaluate(ex.parse("sqrt(u)"), {"u": -1.0})


def test_to_source_round_trip():
    src = "u^2*sin(v) - 3/(u + 1)"
    e = ex.parse(src)
    e2 = ex.parse(ex.to_source(e))
    for u in (0.2, 1.5):
        for v in (-0.3, 0.9):
            assert (ex.evaluate(e, {"u": u, "v": v})
                    == pytest.approx(ex.evaluate(e2, {"u": u, "v": v})))


def test_diff():
    e = ex.parse("u^3 + sin(u)*v")
    d = ex.diff(e, "u")
    got = ex.evaluate(d, {"u": 0.5, "v": 2.0})
    assert got == pytest.approx(3 * 0.25 + math.cos(0.5) * 2.0)


def test_diff_frees_its_memo_by_refcount():
    # the memo holds every node visited; with no reference cycle it goes
    # when diff returns, without waiting for the cyclic collector
    import gc

    from frontalforge.curve import helix
    from frontalforge.normalform import (EdgeNormalForm, ScalarProfile,
                                         SurfaceProfile, from_normal_form)
    nf = EdgeNormalForm(helix(1.0, 0.5, 1.0),
                        ScalarProfile.from_expr("0.4 + 0.1*sin(u)"),
                        SurfaceProfile.from_expr("1 + 0.1*u*v"),
                        SurfaceProfile.from_expr("0.7 + 0.1*u^2"))
    component = from_normal_form(nf).map.components[2]
    gc.disable()
    try:
        gc.collect()
        d = ex.diff(component, "u")
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert d is not None


def test_tape_and_subs_free_by_refcount():
    # the tape compiler and subs recurse through module-level functions,
    # so a dropped tape, and the memo of subs, go without the cyclic
    # collector
    import gc

    from frontalforge.germ import catalog
    component = catalog("swallowtail").map.components[2]
    gc.disable()
    try:
        gc.collect()
        m = ex.MapDef("m", ("u", "v"),
                      ["u*v + sin(u)", "u^2 - v", "exp(v)*u"])
        assert m((0.1, 0.2)) is not None
        del m
        assert gc.collect() == 0
        s = ex.subs(component, "u", ex.parse("v + 1"))
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert s is not None


def test_subs_and_free_vars():
    e = ex.parse("u + v")
    assert ex.free_vars(e) == {"u", "v"}
    e2 = ex.subs(e, "v", ex.parse("u^2"))
    assert ex.free_vars(e2) == {"u"}
    assert ex.evaluate(e2, {"u": 3.0}) == pytest.approx(12.0)


def test_mapdef_call_and_grid():
    m = ex.MapDef("m", ("u", "v"), ("u + v", "u*v", "v^2"))
    assert np.allclose(m((2.0, 3.0)), [5.0, 6.0, 9.0])
    U, V = np.meshgrid([0.0, 1.0], [2.0, 3.0], indexing="ij")
    g = m.eval_grid({"u": U, "v": V})
    assert g.shape == (3, 2, 2)
    assert g[1, 1, 0] == pytest.approx(2.0)


def test_mapdef_jet():
    m = ex.MapDef("m", ("u", "v"), ("u^2*v", "v^3", "u"))
    j = m.eval_jet((1.0, 2.0), 2)
    assert j.partial(1, 0)[0] == pytest.approx(4.0)
    assert j.partial(1, 1)[0] == pytest.approx(2.0)
    assert j.partial(0, 2)[1] == pytest.approx(12.0)


def test_mapdef_diff():
    m = ex.MapDef("m", ("u", "v"), ("u*v", "u + v", "v^2"))
    du = m.diff("u")
    assert np.allclose(du((2.0, 5.0)), [5.0, 1.0, 0.0])


def test_mapdef_params():
    m = ex.MapDef("m", ("u",), ("a*u",), {"a": 3.0})
    assert m((2.0,))[0] == pytest.approx(6.0)


# ------------------------------------------------- tape against a tree walker

_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


def ref_evaluate(e, b):
    """Plain recursive walk with the per-op semantics of the interpreter."""
    if isinstance(e, ex.Num):
        return e.value
    if isinstance(e, ex.Var):
        if e.name in b:
            return b[e.name]
        if e.name in ex.CONSTANTS:
            return ex.CONSTANTS[e.name]
        raise ex.EvalDomainError(f"unbound identifier '{e.name}'", e.name)
    if isinstance(e, ex.Neg):
        return -ref_evaluate(e.operand, b)
    if isinstance(e, ex.Bin):
        l, r = ref_evaluate(e.left, b), ref_evaluate(e.right, b)
        try:
            if e.op == "+":
                return l + r
            if e.op == "-":
                return l - r
            if e.op == "*":
                return l * r
            if e.op == "/":
                if isinstance(l, Series) or isinstance(r, Series):
                    return (l if isinstance(l, Series) else r._coerce(l)) / r
                if r == 0.0:
                    raise DomainViolation("division by zero")
                return l / r
            if isinstance(l, Series):
                return l ** r
            if isinstance(r, Series):
                return r._coerce(l) ** r
            if l < 0 and not float(r).is_integer():
                raise DomainViolation("non-integer power of a negative base")
            if l == 0 and r < 0:
                raise DomainViolation("zero raised to a negative power")
            return l ** r
        except DomainViolation as exc:
            raise ex.EvalDomainError(str(exc), ex._node_source(e)) from exc
    x = ref_evaluate(e.arg, b)
    try:
        if isinstance(x, Series):
            return getattr(x, e.fn)()
        if e.fn == "log" and x <= 0.0:
            raise DomainViolation("log of a nonpositive quantity")
        if e.fn == "sqrt" and x < 0.0:
            raise DomainViolation("sqrt of a negative quantity")
        return getattr(math, e.fn)(x)
    except (DomainViolation, ValueError) as exc:
        raise ex.EvalDomainError(str(exc), ex._node_source(e)) from exc


_NP = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
       "log": np.log, "sqrt": np.sqrt, "atan": np.arctan}


def ref_grid(e, arrays):
    if isinstance(e, ex.Num):
        return e.value
    if isinstance(e, ex.Var):
        return arrays[e.name] if e.name in arrays else ex.CONSTANTS[e.name]
    if isinstance(e, ex.Neg):
        return -ref_grid(e.operand, arrays)
    if isinstance(e, ex.Bin):
        l, r = ref_grid(e.left, arrays), ref_grid(e.right, arrays)
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        return np.divide(l, r) if e.op == "/" else np.power(l, r)
    return _NP[e.fn](ref_grid(e.arg, arrays))


def _outcome(fn, *args):
    """Result bits, or the exception's type and message."""
    try:
        value = fn(*args)
    except Exception as exc:  # the same failure is part of the contract
        return ("raised", type(exc).__name__, str(exc))
    if isinstance(value, Series):
        return tuple(float(c).hex() for c in value.c.ravel())
    return float(value).hex()


_U, _V = ex.var("u"), ex.var("v")
_CONSTS = [0.0, -0.0, 1.0, 2.0, 3.0, 0.5, -1.5, 1e-3]


def _node(make):
    return lambda t: make((0, 0), *t)


def _expressions(unary_fns, bin_ops, exponents, leaves):
    def grow(kids):
        return st.one_of(
            st.tuples(st.sampled_from(bin_ops), kids, kids).map(_node(ex.Bin)),
            # the same child twice, so the expression is a DAG
            st.tuples(st.sampled_from(bin_ops), kids).map(
                lambda t: ex.Bin((0, 0), t[0], t[1], t[1])),
            st.tuples(st.just("^"), kids, exponents).map(_node(ex.Bin)),
            kids.map(lambda a: ex.Neg((0, 0), a)),
            st.tuples(st.sampled_from(unary_fns), kids).map(_node(ex.Call)))
    return st.recursive(leaves, grow, max_leaves=10)


_any_expr = _expressions(
    ex.FUNCTIONS, "+-*/",
    st.one_of(st.sampled_from([_U, _V]),
              st.sampled_from([0.0, 1.0, 2.0, 3.0, -1.0, 0.5, -2.0]).map(ex.num)),
    st.one_of(st.sampled_from([_U, _V, ex.var("pi"), ex.var("e")]),
              st.sampled_from(_CONSTS).map(lambda c: ex.Num((0, 0), c))))
_coord = st.floats(-2.0, 2.0)


@_PROPERTY
@given(_any_expr, _coord, _coord)
def test_tape_matches_tree_walk_on_floats(e, u, v):
    b = {"u": u, "v": v}
    want = _outcome(ref_evaluate, e, b)
    assert _outcome(ex.evaluate, e, b) == want
    m = ex.MapDef("m", ("u", "v"), [e])
    assert _outcome(lambda: m((u, v))[0]) == want


@_PROPERTY
@given(_any_expr, _coord, _coord)
def test_tape_matches_tree_walk_on_series(e, u, v):
    b = {"u": Series.variable(0, u, 2, 3), "v": Series.variable(1, v, 2, 3)}
    with np.errstate(all="ignore"):
        assert _outcome(ex.evaluate, e, b) == _outcome(ref_evaluate, e, b)


@_PROPERTY
@given(_any_expr, st.lists(_coord, min_size=6, max_size=6))
def test_tape_matches_tree_walk_on_grids(e, coords):
    U = np.array(coords[:3])[:, None]
    V = np.array(coords[3:])[None, :]
    with np.errstate(all="ignore"):
        want = np.broadcast_to(np.asarray(
            ref_grid(e, {"u": U, "v": V}), dtype=float), (3, 3))
    got = ex.MapDef("m", ("u", "v"), [e]).eval_grid({"u": U, "v": V})[0]
    assert got.tobytes() == want.tobytes()


def _value(e, b):
    """The float value of e, or the type of the exception it raises."""
    try:
        return ex.evaluate(e, b)
    except Exception as exc:  # the same failure is part of the contract
        return type(exc)


@_PROPERTY
@given(_any_expr, _coord, _coord)
def test_to_source_parses_back_to_the_same_value(e, u, v):
    b = {"u": u, "v": v}
    want, got = _value(e, b), _value(ex.parse(ex.to_source(e)), b)
    assert got == want or (got != got and want != want)


def test_negated_power_keeps_its_sign():
    # unary minus binds before "^", so -(u^2) must not print as -u^2
    for src, want in (("-(u^2)", "-(u^2)"), ("-(pi^u*(e^u))", "-(pi^u*(e^u))"),
                      ("-(u*v^2)", "-u*(v^2)"), ("-(u^2/v)", "-(u^2/v)")):
        e = ex.parse(src)
        assert ex.to_source(e) == want
        b = {"u": 0.5, "v": 1.5}
        assert ex.evaluate(ex.parse(want), b) == ex.evaluate(e, b)


_smooth_expr = _expressions(
    ("sin", "cos", "atan", "exp"), "+-*", st.sampled_from([2.0, 3.0]).map(ex.num),
    st.one_of(st.sampled_from([_U, _V]),
              st.sampled_from([0.5, 1.0, 2.0, -1.5]).map(ex.num)))


@_PROPERTY
@given(_smooth_expr, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_jet_partials_equal_diff(e, u, v):
    jet = ex.MapDef("m", ("u", "v"), [e]).eval_jet((u, v), 3)
    assume(all(np.isfinite(p[0]) for p in jet.partials.values()))
    scale = max(1.0, max(abs(p[0]) for p in jet.partials.values()))
    for (i, k), partial in jet.partials.items():
        d = e
        for name in "u" * i + "v" * k:
            d = ex.diff(d, name)
        want = ex.evaluate(d, {"u": u, "v": v})
        assert partial[0] == pytest.approx(want, rel=1e-9, abs=1e-9 * scale)


@_PROPERTY
@given(_smooth_expr, st.lists(st.tuples(st.floats(-1.0, 1.0),
                                        st.floats(-1.0, 1.0)),
                              min_size=1, max_size=5))
def test_jet_batch_rows_equal_one_point_jets(e, rows):
    m = ex.MapDef("m", ("u", "v"), [e])
    X = np.array(rows)
    batch = m.eval_jet(X, 3)
    for k, x in enumerate(X):
        for alpha, partial in m.eval_jet(x, 3).partials.items():
            assert partial.shape == (1,)
            assert batch.partials[alpha].shape == (len(X), 1)
            np.testing.assert_allclose(batch.partials[alpha][k], partial,
                                       rtol=1e-15, atol=0)


def test_jet_batch_raises_the_error_of_its_failing_row():
    m = ex.MapDef("m", ("u",), ["sqrt(u)"])
    with pytest.raises(ex.EvalDomainError) as one:
        m.eval_jet((-1.0,), 3)
    with pytest.raises(ex.EvalDomainError) as batch:
        m.eval_jet(np.array([[1.0], [-1.0]]), 3)
    assert str(batch.value) == str(one.value)
    # a zero with no nilpotent part has the square root 0 in any batch
    zero = ex.MapDef("z", ("u",), ["sqrt(u - u) + u"])
    np.testing.assert_array_equal(
        zero.eval_jet(np.array([[0.5], [-2.0]]), 3).partial(1), [[1.0], [1.0]])


def test_eval_jet_takes_any_order_and_refuses_negative_ones():
    m = ex.MapDef("m", ("u",), ["sin(u)", "exp(u)", "u^5"])
    with pytest.raises(ValueError, match="jet order -1 is negative"):
        m.eval_jet(np.array([[0.3]]), -1)
    np.testing.assert_allclose(m.eval_jet((0.3,), 3).partial(3),
                               [-math.cos(0.3), math.exp(0.3), 60 * 0.3 ** 2],
                               rtol=1e-14)
    # past the fourth derivative, which an order-3 rule would read as 0
    np.testing.assert_allclose(m.eval_jet((0.3,), 6).partial(5),
                               [math.cos(0.3), math.exp(0.3), 120.0],
                               rtol=1e-14)


@pytest.mark.parametrize("src", [
    "sqrt(1 + u*v)", "exp(u - v)", "log(2 + u*v)", "sin(u + v)", "cos(u*v)",
    "tan(u - v)", "atan(u + 2*v)", "u^5*v^3", "(1 + u^2)^(-3)", "(1 + u)^2.5",
    "(2 + u)^v"])
def test_order_8_jets_equal_nested_diff(src):
    # every partial up to order 8 of the seven functions and of integer
    # and fractional powers, against the float value of the symbolic
    # derivative, within 1e-11 relative to max(1, |partial|): the
    # recurrences and the nested derivatives round differently
    m = ex.MapDef("m", ("u", "v"), [src])
    X = np.array([[0.3, -0.4], [-0.5, 0.2], [0.7, 0.6], [0.0, 0.0]])
    jet = m.eval_jet(X, 8)
    assert len(jet.partials) == 45
    for (i, k), got in jet.partials.items():
        d = m
        for name in "u" * i + "v" * k:
            d = d.diff(name)
        want = np.array([d(x) for x in X])
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-11 * max(1.0, np.abs(want).max()))


def _checked_grid_cases():
    from frontalforge.curve import SpaceCurve
    from frontalforge.germ import SurfaceGerm
    from frontalforge.match import PlaneMap
    from frontalforge.normalform import ScalarProfile, SurfaceProfile
    from frontalforge.numkit import Interval
    log, root = ("log of a nonpositive quantity in 'log(u)'",
                 "sqrt of a negative quantity in 'sqrt({})'")
    sp = ScalarProfile.from_expr("log(u)")
    sf = SurfaceProfile.from_expr("v + log(u)")
    cv = SpaceCurve(ex.MapDef("c", ("u",), ["u", "sqrt(u)", "0"]),
                    Interval(0.0, 1.0))
    g = SurfaceGerm(ex.MapDef("g", ("u", "v"), ["u", "v", "log(u)"]),
                    ((-1, 1), (-1, 1)))
    pm = PlaneMap(ex.MapDef("p", ("t",), ["t", "sqrt(t)"]), Interval(0.0, 1.0))
    # name: (the failing station alone, in an array of stations, message)
    return {name: case for name, *case in [
        ("ScalarProfile", lambda: sp(-1.0),
         lambda: sp(np.array([0.5, -1.0, 2.0])), log),
        ("ScalarProfile.deriv", lambda: sp.deriv(0.0),
         lambda: sp.deriv(np.array([0.5, 0.0])), "division by zero in '1/u'"),
        ("SurfaceProfile", lambda: sf(-1.0, 0.2),
         lambda: sf(np.array([[0.5], [-1.0]]), np.array([0.1, 0.2])), log),
        ("SpaceCurve", lambda: cv(-1.0), lambda: cv(np.array([0.5, -1.0])),
         root.format("u")),
        ("SpaceCurve.derivatives", lambda: cv.derivatives(0.0, 3),
         lambda: cv.derivatives(np.array([0.5, 0.0]), 3),
         "division by zero in '1/(2*sqrt(u))'"),
        ("SurfaceGerm.points", lambda: g.points(np.array([[-0.25, 0.2]])),
         lambda: g.points(np.array([[0.5, 0.1], [-0.25, 0.2]])), log),
        ("PlaneMap.points", lambda: pm.points(-0.5),
         lambda: pm.points(np.array([0.25, -0.5])), root.format("t")),
    ]}


@pytest.mark.parametrize("name", [
    "ScalarProfile", "ScalarProfile.deriv", "SurfaceProfile", "SpaceCurve",
    "SpaceCurve.derivatives", "SurfaceGerm.points", "PlaneMap.points"])
def test_checked_grid_paths_raise_the_float_error(name):
    # MapDef.values evaluates a non-finite grid point again on the float
    # path, for a 0-d station as for an array of them
    one, many, message = _checked_grid_cases()[name]
    for call in (one, many):
        with pytest.raises(ex.EvalDomainError) as err:
            call()
        assert str(err.value) == message


def test_signed_zero_constants_stay_distinct():
    u = ex.var("u")
    zero, minus_zero = ex.Num((0, 0), 0.0), ex.Num((0, 0), -0.0)
    m = ex.MapDef("z", ("u",), [zero, minus_zero])
    assert list(np.signbit(m((1.0,)))) == [False, True]
    m = ex.MapDef("z", ("u",), [ex.Bin((0, 0), "/", u, zero),
                                ex.Bin((0, 0), "/", u, minus_zero)])
    assert len(m.tape) == 2
    assert list(m.eval_grid({"u": np.array([1.0])})[:, 0]) == [np.inf, -np.inf]


def test_domain_errors_name_the_failing_node():
    with pytest.raises(ex.EvalDomainError) as err:
        ex.evaluate(ex.parse("u + 1/(v - v)"), {"u": 1.0, "v": 2.0})
    assert str(err.value) == "division by zero in '1/(v-v)'"
    # the first failure in evaluation order wins: log before the unbound w
    with pytest.raises(ex.EvalDomainError) as err:
        ex.evaluate(ex.parse("log(u) + w"), {"u": -1.0})
    assert str(err.value) == "log of a nonpositive quantity in 'log(u)'"
    with pytest.raises(ex.EvalDomainError) as err:
        ex.evaluate(ex.parse("w + log(u)"), {"u": -1.0})
    assert str(err.value) == "unbound identifier 'w' in 'w'"
    m = ex.MapDef("m", ("u", "v"), ["u", "u*v"])
    with pytest.raises(ex.EvalDomainError, match="unbound identifier 'v'"):
        m.eval_grid({"u": np.zeros(2)})


def test_mapdef_repr_is_short():
    m = ex.MapDef("m", ("u", "v"), ("u*v + u*v", "sin(u*v)"))
    assert repr(m) == "MapDef('m', ('u', 'v'), 2 components, tape 3)"


def _distinct_nodes(exprs):
    seen, stack = set(), list(exprs)
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen.add(id(n))
            stack += [getattr(n, a) for a in ("operand", "left", "right", "arg")
                      if getattr(n, a, None) is not None]
    return len(seen)


def test_normal_form_maps_stay_small():
    from frontalforge.curve import helix
    from frontalforge.normalform import (EdgeNormalForm, ScalarProfile,
                                         SurfaceProfile, from_normal_form)
    nf = EdgeNormalForm(helix(1.0, 0.5, 1.0),
                        ScalarProfile.from_expr("0.4 + 0.1*sin(u)"),
                        SurfaceProfile.from_expr("1 + 0.1*u*v"),
                        SurfaceProfile.from_expr("0.7 + 0.1*u^2"))
    germ = from_normal_form(nf)
    for m in (germ.map, germ.normal_map, *germ._partials):
        assert len(m.tape) <= 1000, m
        # diff and subs keep shared nodes shared instead of copying trees
        assert _distinct_nodes(m.components) <= 10 * len(m.tape), m
