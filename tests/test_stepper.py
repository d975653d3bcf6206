"""Compiled RK4 steppers are cached per system shape: numeric constants
are stepper parameters, so systems that differ only in constants share
one compiled stepper and still integrate with their own values."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from hybridpi import kernel
from hybridpi.flows import UNDEFINED, eval_expr
from hybridpi.kernel import IntegratorConfig, UndefinedDynamics, continuous_step
from hybridpi.parser import parse_term
from hybridpi.simulator import simulate
from hybridpi.syntax import ARITY, OPERATORS, Const, Op, Var, fresh

from conftest import sim_config


@pytest.fixture
def cache(monkeypatch):
    fresh = {}
    monkeypatch.setattr(kernel, "_compiled_cache", fresh)
    return fresh


def test_received_values_compile_one_stepper(cache):
    # every round receives a new rate k; the field shape never changes
    p = parse_term("mu l(k) @ <1> . {0 | x' = k & x < 1}(z) . l!<k + 1>")
    res = simulate(p, sim_config(5.0))
    assert sum(ev.kind == "Stop" for ev in res.trace) > 10
    assert len(cache) == 1


def test_one_shape_with_different_constants_shares_a_stepper(cache):
    cfg = IntegratorConfig(step=1e-3)
    for rate in (0.5, 2.0, 3.0):
        res = continuous_step(parse_term(f"{{1 | v' = {rate} * v & v < 5}}"), 10.0, cfg)
        assert res.duration == pytest.approx(math.log(5.0) / rate, abs=1e-6)
        (end,) = res.stops[0].values.values()
        assert end == pytest.approx(5.0, abs=1e-6)
    assert len(cache) == 1


def test_infinite_constant_is_a_blow_up_not_a_crash(cache):
    # a received rate overflows to inf; as a parameter it integrates to a
    # non-finite state instead of compiling to an undefined name
    p = parse_term("mu l(k) @ <1e300> . {0 | x' = k & x < 1}(z) . l!<k * 1e10>")
    with pytest.raises(UndefinedDynamics, match="not finite"):
        simulate(p, sim_config(1.0))


# -- the interpreter and the compiled source agree ----------------------------

_XS = [fresh(f"x{i}") for i in range(3)]
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 4.0, -4.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_exprs = st.recursive(
    st.one_of(st.sampled_from(_XS).map(Var), _values.map(Const)),
    lambda kids: st.sampled_from(sorted(OPERATORS)).flatmap(
        lambda op: st.tuples(*[kids] * ARITY[op]).map(lambda args: Op(op, args))
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(_exprs, st.tuples(*[_values] * len(_XS)))
def test_interpreter_matches_the_compiled_source(e, state):
    names = {x: f"X{i}" for i, x in enumerate(_XS)}
    consts: list = []
    src = kernel._expr_src(e, names, consts)
    scope = {f"X{i}": v for i, v in enumerate(state)}
    scope.update({f"K{k}": c for k, c in enumerate(consts)})
    try:
        want = eval(src, {"math": math}, scope)
    except (ZeroDivisionError, ValueError, OverflowError):
        want = UNDEFINED
    got = eval_expr(e, dict(zip(_XS, state)))
    # repr tells -0.0 from 0.0 and lets nan equal nan
    assert got is want if want is UNDEFINED else repr(got) == repr(want)
