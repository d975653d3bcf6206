"""States, expression evaluation, flows, and the contract algebra.

A state maps names to IEEE-754 doubles.  Evaluation is partial: names
outside the state stay residual, any operator over a non-real argument is
undefined, as are division by zero and square roots of negatives.  Flows are
sampled trajectories with piecewise-linear interpolation; a contract splits
a flow into an assumption part (variables read from the environment) and a
guarantee part (variables the process defines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .syntax import (
    BAnd,
    BFalse,
    BoolExpr,
    Const,
    Expr,
    HpiError,
    Less,
    Name,
    Var,
)

TAU_GLUE = 1e-9


class GlueError(HpiError):
    pass


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
        return e.value if _is_real(e.value) else e.value
    if isinstance(e, Var):
        v = s.get(e.name)
        return e if v is None else v
    args = [eval_expr(a, s) for a in e.args]
    if not all(_is_real(a) for a in args):
        return UNDEFINED
    return apply_op(e.op, args)


def apply_op(op: str, args: Sequence[float]):
    try:
        if op == "+":
            return args[0] + args[1]
        if op == "-":
            return args[0] - args[1]
        if op == "*":
            return args[0] * args[1]
        if op == "/":
            return args[0] / args[1]
        if op == "sqrt":
            if args[0] < 0:
                return UNDEFINED
            return math.sqrt(args[0])
        if op == "min":
            return min(args[0], args[1])
        if op == "max":
            return max(args[0], args[1])
        if op == "neg":
            return -args[0]
    except (ZeroDivisionError, OverflowError):
        return UNDEFINED
    raise ValueError(f"unknown operator {op!r}")


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
    event_points: tuple = ()  # indices of inserted (non-uniform) grid points

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

    def at(self, t: float) -> State:
        if not self.names:
            return {}
        row = np.array([
            np.interp(t, self.times, self.values[:, j]) for j in range(len(self.names))
        ])
        return dict(zip(self.names, row))

    def project(self, names: Sequence[Name]) -> "Flow":
        idx = [self.names.index(n) for n in names]
        return Flow(tuple(names), self.times, self.values[:, idx], self.event_points)


def empty_flow(duration: float) -> Flow:
    return Flow((), np.array([0.0, duration]), np.zeros((2, 0)))


def constant_flow(names: Sequence[Name], state: State, duration: float) -> Flow:
    row = np.array([state[n] for n in names], dtype=float)
    return Flow(tuple(names), np.array([0.0, duration]), np.vstack([row, row]))


def flow_concat(r1: Flow, r2: Flow) -> Flow:
    if set(r1.names) != set(r2.names):
        raise GlueError("flows must share the same name set")
    r2 = r2.project(r1.names)
    right = r1.values[-1]
    left = r2.values[0]
    if len(r1.names):
        off = np.max(np.abs(right - left))
        if off > TAU_GLUE:
            worst = r1.names[int(np.argmax(np.abs(right - left)))]
            raise GlueError(f"flow endpoints disagree by {off:g} on {worst.display}")
    times = np.concatenate([r1.times[:-1], r2.times + r1.duration])
    values = np.vstack([r1.values[:-1], r2.values])
    events = tuple(r1.event_points) + (len(r1.times) - 1,) + tuple(
        i + len(r1.times) - 1 for i in r2.event_points
    )
    return Flow(r1.names, times, values, events)


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


@dataclass
class Contract:
    assumption: Flow
    guarantee: Flow

    def __post_init__(self):
        if abs(self.assumption.duration - self.guarantee.duration) > TAU_GLUE:
            raise ValueError("assumption and guarantee must share a duration")
        if set(self.assumption.names) & set(self.guarantee.names):
            raise ValueError("assumption and guarantee must be name-disjoint")

    @property
    def duration(self) -> float:
        return self.guarantee.duration

    def closed(self) -> bool:
        return not self.assumption.names

    def state_at(self, t: float) -> State:
        s = self.assumption.at(t)
        s.update(self.guarantee.at(t))
        return s


def closed_contract(g: Flow) -> Contract:
    return Contract(empty_flow(g.duration), g)


def _merged_grid(*flows: Flow) -> np.ndarray:
    grid = np.unique(np.concatenate([f.times for f in flows]))
    # collapse points closer than the glue tolerance
    keep = [grid[0]]
    for t in grid[1:]:
        if t - keep[-1] > TAU_GLUE:
            keep.append(t)
    return np.array(keep)


def _resample(f: Flow, grid: np.ndarray) -> np.ndarray:
    if not f.names:
        return np.zeros((len(grid), 0))
    return np.column_stack([np.interp(grid, f.times, f.values[:, j]) for j in range(len(f.names))])


def contract_compose(c1: Contract, c2: Contract) -> Contract:
    if abs(c1.duration - c2.duration) > TAU_GLUE:
        raise GlueError("contract durations differ")
    g_overlap = set(c1.guarantee.names) & set(c2.guarantee.names)
    if g_overlap:
        names = ", ".join(sorted(n.display for n in g_overlap))
        raise GlueError(f"guarantees overlap on {names}")
    grid = _merged_grid(c1.assumption, c1.guarantee, c2.assumption, c2.guarantee)
    cols: dict[Name, np.ndarray] = {}
    for f in (c1.guarantee, c2.guarantee, c1.assumption, c2.assumption):
        vals = _resample(f, grid)
        for j, n in enumerate(f.names):
            col = vals[:, j]
            if n in cols:
                off = float(np.max(np.abs(cols[n] - col)))
                if off > TAU_GLUE:
                    raise GlueError(f"disagreement on {n.display}: {off:g}")
            else:
                cols[n] = col
    g_names = tuple(c1.guarantee.names) + tuple(c2.guarantee.names)
    a_names = tuple(
        n
        for n in tuple(c1.assumption.names) + tuple(c2.assumption.names)
        if n not in set(g_names)
    )
    # keep assumption names unique, preserving order
    seen = set()
    a_unique = []
    for n in a_names:
        if n not in seen:
            seen.add(n)
            a_unique.append(n)
    g = Flow(g_names, grid, np.column_stack([cols[n] for n in g_names]) if g_names else np.zeros((len(grid), 0)))
    a = Flow(tuple(a_unique), grid, np.column_stack([cols[n] for n in a_unique]) if a_unique else np.zeros((len(grid), 0)))
    return Contract(a, g)


def check_ode_along(vars_: Sequence[Name], field: Sequence[Expr], c: Contract, tol: float = 1e-4) -> bool:
    """Central-difference check that the guarantee flow solves the ODE."""
    g = c.guarantee.project(vars_)
    times = g.times
    events = set(c.guarantee.event_points)
    for k in range(1, len(times) - 1):
        if k in events or k - 1 in events or k + 1 in events:
            continue
        h1 = times[k] - times[k - 1]
        h2 = times[k + 1] - times[k]
        if abs(h1 - h2) > 0.01 * max(h1, h2):
            continue  # corner of a piecewise grid, exempt
        state = c.state_at(times[k])
        for j, e in enumerate(field):
            fd = (g.values[k + 1, j] - g.values[k - 1, j]) / (h1 + h2)
            want = eval_expr(e, state)
            if not _is_real(want):
                return False
            if abs(fd - want) > tol * max(1.0, abs(want)):
                return False
    return True


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def flow_to_csv(flow: Flow, column_names: Optional[Sequence[str]] = None) -> str:
    if column_names is None:
        column_names = [n.display for n in flow.names]
    lines = ["time," + ",".join(column_names)]
    for i, t in enumerate(flow.times):
        row = [f"{t:.17g}"] + [f"{v:.17g}" for v in flow.values[i]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
