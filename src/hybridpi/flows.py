"""States, expression evaluation, and flows.

A state maps names to IEEE-754 doubles.  Evaluation is partial: names
outside the state stay residual, any operator over a non-real argument is
undefined, as are division by zero and square roots of negatives.  A flow
is the sampled trajectory of one continuous step: the joint state of every
evolving cell on a strictly increasing time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .syntax import (
    ARITY,
    OPERATORS,
    BAnd,
    BFalse,
    BoolExpr,
    Const,
    Expr,
    Less,
    Var,
)


class _Undefined:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        return False


UNDEFINED = _Undefined()

State = dict  # Name -> float


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def eval_expr(e: Expr, s: Optional[State] = None):
    """Evaluate to a real, a residual expression, or UNDEFINED."""
    if s is None:
        s = {}
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        v = s.get(e.name)
        return e if v is None else v
    args = [eval_expr(a, s) for a in e.args]
    if not all(_is_real(a) for a in args):
        return UNDEFINED
    return apply_op(e.op, args)


def _compile_operators() -> dict:
    """op -> a function of its arguments, compiled from its source in
    syntax.OPERATORS (the same source the steppers are built from)."""
    out = {}
    for op, src in OPERATORS.items():
        args = [f"a{i}" for i in range(ARITY[op])]
        ns: dict = {"math": math}
        exec(f"def f({', '.join(args)}):\n    return {src.format(*args)}", ns)
        out[op] = ns["f"]
    return out


_OPERATOR_FNS = _compile_operators()


def apply_op(op: str, args: Sequence[float]):
    fn = _OPERATOR_FNS.get(op)
    if fn is None:
        raise ValueError(f"unknown operator {op!r}")
    try:
        return fn(*args)
    except (ZeroDivisionError, ValueError, OverflowError):
        return UNDEFINED


def eval_bool(b: BoolExpr, s: Optional[State] = None):
    """Three-valued: True, False, or UNDEFINED (propagated strictly)."""
    if s is None:
        s = {}
    if isinstance(b, BFalse):
        return False
    if isinstance(b, Less):
        l = eval_expr(b.lhs, s)
        r = eval_expr(b.rhs, s)
        if _is_real(l) and _is_real(r):
            return l < r
        # identical residuals compare equal, so e < e is decidedly false
        if not isinstance(l, _Undefined) and not isinstance(r, _Undefined) and l == r:
            return False
        return UNDEFINED
    if isinstance(b, BAnd):
        l = eval_bool(b.lhs, s)
        r = eval_bool(b.rhs, s)
        if isinstance(l, _Undefined) or isinstance(r, _Undefined):
            return UNDEFINED
        return l and r
    a = eval_bool(b.arg, s)
    return UNDEFINED if isinstance(a, _Undefined) else not a


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------


@dataclass
class Flow:
    """Sampled trajectory: strictly increasing times from 0, one row of
    values per grid point.  The last sample is the explicit right limit."""

    names: tuple  # of Name
    times: np.ndarray
    values: np.ndarray  # shape (len(times), len(names))

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 1:
            self.values = self.values.reshape(len(self.times), -1)
        if self.values.shape != (len(self.times), len(self.names)):
            raise ValueError("flow sample shape mismatch")
        if len(self.times) < 2 and len(self.names) > 0:
            raise ValueError("a flow needs at least two grid points")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("flow grid must be strictly increasing")
        if self.times[0] != 0.0:
            raise ValueError("flow grid must start at 0")

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def left(self) -> State:
        return dict(zip(self.names, self.values[0]))

    def right_limit(self) -> State:
        return dict(zip(self.names, self.values[-1]))
