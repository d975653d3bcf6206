"""Compiled RK4 steppers are cached per system shape: numeric constants
are stepper parameters, so systems that differ only in constants share
one compiled stepper and still integrate with their own values.  The
compiled fixed-step loop gives the samples of a reference RK4 loop over
the interpreter bit for bit, and keeps the substep and blow-up checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridpi import kernel
from hybridpi.flows import UNDEFINED, eval_bool, eval_expr
from hybridpi.equivalence import bind_env
from hybridpi.kernel import IntegratorConfig, StepOverflow, UndefinedDynamics, continuous_step
from hybridpi.parser import parse_term
from hybridpi.simulator import simulate
from hybridpi.syntax import ARITY, OPERATORS, Const, Op, Var, free_names, fresh
from hybridpi.zoo import load

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
    env: list = []
    consts: list = []
    src = kernel._expr_src(e, names, env, consts)
    assert not env  # every name is a state variable
    scope = {f"X{i}": v for i, v in enumerate(state)}
    scope.update({f"K{k}": c for k, c in enumerate(consts)})
    try:
        want = eval(src, {"math": math}, scope)
    except (ZeroDivisionError, ValueError, OverflowError):
        want = UNDEFINED
    got = eval_expr(e, dict(zip(_XS, state)))
    # repr tells -0.0 from 0.0 and lets nan equal nan
    assert got is want if want is UNDEFINED else repr(got) == repr(want)


# -- the compiled loop against a reference RK4 loop ---------------------------


def _reference_rk4(p, horizon, cfg, env):
    """Fixed-step RK4 over the interpreter: the accepted (time, state)
    samples up to the horizon or up to the start of the first step whose
    end fails a boundary, and that step's end time (None at the horizon)."""
    cells = kernel.survey(p)[0].cells
    vars_ = [v for c in cells for v in c.prefix.vars]
    fields = [f for c in cells for f in c.prefix.fields]
    y = [float(eval_expr(e, env)) for c in cells for e in c.prefix.init]

    def slopes(x):
        s = {**env, **dict(zip(vars_, x))}
        return [eval_expr(f, s) for f in fields]

    times, rows = [0.0], [tuple(y)]
    t = 0.0
    while t < horizon - 1e-12 * max(1.0, horizon):
        dt = min(cfg.step, horizon - t)
        A = slopes(y)
        B = slopes([Y + 0.5*dt*a for Y, a in zip(y, A)])
        C = slopes([Y + 0.5*dt*b for Y, b in zip(y, B)])
        D = slopes([Y + dt*c for Y, c in zip(y, C)])
        y_new = [Y + dt*(a + 2.0*b + 2.0*c + d)/6.0 for Y, a, b, c, d in zip(y, A, B, C, D)]
        s = {**env, **dict(zip(vars_, y_new))}
        if not all(eval_bool(c.prefix.boundary, s) is True for c in cells):
            return times, rows, t + dt
        t += dt
        y = y_new
        times.append(t)
        rows.append(tuple(y))
    return times, rows, None


@pytest.mark.parametrize("src, env, horizon, step", [
    ("{1 | x' = -0.5 * x & 0.2 < x}", {}, 10.0, 1e-2),
    ("{0 | x' = u & x < 100}", {"u": 1.5}, 2.5, 3e-2),
    ("{0, 1 | x' = y, y' = -x & x < 0.9}", {}, 10.0, 1e-2),
    ("{0, 1 | x' = y, y' = -x & x < 2}", {}, 6.0, 7e-2),
    ("{0, 0, 1 | p' = v, v' = u - 0.1 * v, q' = min(q, 2) * w & p < 50}", {"u": 1.5, "w": 0.5}, 3.0, 1e-2),
    ("{0 | x' = 1 & x < 1}(z) . 0 || {1, 2 | a' = b / (a + 1), b' = sqrt(b) - w & b < 3}", {"w": -0.25}, 4.0, 1e-2),
])
def test_compiled_loop_matches_a_reference_rk4(src, env, horizon, step):
    p = parse_term(src)
    env = {n: env[n.display] for n in free_names(p) if n.display in env}
    cfg = IntegratorConfig(step=step)
    times, rows, crossed = _reference_rk4(p, horizon, cfg, env)
    res = continuous_step(p, horizon, cfg, env)
    got_t = res.full_flow.times.tolist()
    got_y = [tuple(r) for r in res.full_flow.values.tolist()]
    # bit for bit: the accepted samples, then the stop or the horizon
    assert [repr(v) for v in got_t[: len(times)]] == [repr(v) for v in times]
    assert [repr(r) for r in got_y[: len(rows)]] == [repr(r) for r in rows]
    assert len(got_t) <= len(times) + 1
    if crossed is None:
        assert res.duration == horizon and not res.stops
    else:
        # the stop falls inside the same step
        assert times[-1] < res.duration <= crossed and res.stops


def test_max_substeps_refuses_a_long_evolution(monkeypatch):
    monkeypatch.setattr(kernel, "MAX_SUBSTEPS", 10)
    cfg = IntegratorConfig()
    with pytest.raises(StepOverflow, match="more than 10 substeps"):
        continuous_step(parse_term("{0 | x' = 1}"), 1.0, cfg)
    res = continuous_step(parse_term("{0 | x' = 1}"), 0.0105, cfg)  # 11 steps pass
    assert res.duration == 0.0105 and len(res.full_flow.times) == 12


def test_blow_up_names_the_first_non_finite_sample():
    # x' = x*x from 1 blows up at t = 1; the stepper overflows to inf a few
    # steps later.  The message names the first non-finite sample's time,
    # also when the state has more than one variable.
    for src in ("{1 | x' = x * x}", "{0, 1 | y' = 1, x' = x * x}"):
        with pytest.raises(UndefinedDynamics, match=r"not finite 1\.003 s into"):
            continuous_step(parse_term(src), 3.0, IntegratorConfig(step=1e-3))


def test_environment_names_are_numbered_in_walk_order(cache):
    # u - w and w - u are one shape: the first environment name met is E0
    for src, want in (("{0 | x' = u - w}", 1.0), ("{0 | x' = w - u}", -1.0)):
        p = parse_term(src)
        env = {n: {"u": 3.0, "w": 2.0}[n.display] for n in free_names(p) if n.display in "uw"}
        (end,) = continuous_step(p, 1.0, IntegratorConfig(step=1e-2), env).full_flow.right_limit().values()
        assert end == pytest.approx(want)
    assert len(cache) == 1


def test_every_flow_grid_starts_at_zero_and_increases():
    # Flow takes its grid unchecked, so the grids the stepper builds are
    # checked here: the ball to its Zeno abort, a pure delay, two cells
    # evolving jointly, a step cut by the horizon and a piecewise environment
    ball, wait = load("ball"), load("wait")
    two = parse_term("{0 | x' = 1 & x < 1} || {0 | y' = 2 & y < 3}")
    ramp = parse_term("{0 | x' = u & x < 10}")
    runs = [
        simulate(ball.main.entry, sim_config(12.0, 1e-3)),
        simulate(wait.main.entry, sim_config(wait.entry.horizon, wait.entry.step)),
        simulate(two, sim_config(5.0)),
        simulate(parse_term("{0 | x' = 1 & x < 5}"), sim_config(0.5037, 1e-2)),
        simulate(ramp, sim_config(1.0, 1e-2), bind_env(ramp, [(0.0, {"u": 1.0}), (0.3, {"u": -1.0})])),
    ]
    assert runs[0].status == "zeno"
    for res in runs:
        assert res.segments
        for _, flow in res.segments:
            assert flow.times[0] == 0.0
            assert len(flow.times) >= 2
            assert np.all(np.diff(flow.times) > 0)
            assert flow.values.shape == (len(flow.times), len(flow.names))
