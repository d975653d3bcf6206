import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hybridpi.flows import UNDEFINED, apply_op, eval_bool, eval_expr, Flow
from hybridpi.syntax import Const, Less, Op, Var, fresh

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


@given(finite, finite)
def test_apply_op_matches_python(a, b):
    assert apply_op("+", [a, b]) == a + b
    assert apply_op("min", [a, b]) == min(a, b)
    assert apply_op("max", [a, b]) == max(a, b)
    assert apply_op("neg", [a]) == -a


def test_apply_op_partiality():
    assert apply_op("/", [1.0, 0.0]) is UNDEFINED
    assert apply_op("sqrt", [-1.0]) is UNDEFINED
    assert apply_op("sqrt", [9.0]) == 3.0
    with pytest.raises(ValueError):
        apply_op("mod", [1.0, 2.0])


def test_eval_expr_grounded_never_residual():
    x, y = fresh("x"), fresh("y")
    e = Op("+", (Op("*", (Var(x), Const(2.0))), Op("sqrt", (Var(y),))))
    for vx in (-1.0, 0.0, 3.5):
        for vy in (0.0, 4.0):
            v = eval_expr(e, {x: vx, y: vy})
            assert isinstance(v, float)
            assert v == pytest.approx(2 * vx + math.sqrt(vy))
    # a missing name leaves a residual, an undefined op propagates UNDEFINED
    assert isinstance(eval_expr(Var(x)), Var)
    assert eval_expr(e, {x: 1.0, y: -1.0}) is UNDEFINED


def test_eval_bool_three_valued():
    x = fresh("x")
    lt = Less(Var(x), Const(1.0))
    assert eval_bool(lt, {x: 0.0}) is True
    assert eval_bool(lt, {x: 2.0}) is False
    assert eval_bool(lt) is UNDEFINED
    # identical residuals: e < e is decidedly false
    assert eval_bool(Less(Var(x), Var(x))) is False


def ramp(name, duration, start, slope, n=11):
    t = np.linspace(0.0, duration, n)
    return Flow((name,), t, (start + slope * t).reshape(-1, 1))


def test_flow_basics_and_validation():
    x = fresh("x")
    f = ramp(x, 2.0, 1.0, 3.0)
    assert f.duration == 2.0
    assert f.left()[x] == 1.0
    assert f.right_limit()[x] == pytest.approx(7.0)
