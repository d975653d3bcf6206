"""Bisimulation checking and the stepped discretization transform.

Strong and weak bisimulation run partition refinement over finite labelled
transition systems built from discrete fragments, with input prefixes
instantiated over a declared value universe.  The refinement interns the
states of both systems as integers in sorted (tag, key) order and the
labels as integers, then works from a worklist: when states move to a new
block, only their predecessors are re-signed, and a block splits by the
(label, successor block) sets of those predecessors while its largest group
keeps the id.  The result numbers blocks by their first member in sorted
state order.  Weak bisimulation is strong bisimulation of the graph
saturated by one tau-closure rule for every visible step, s => -l-> => t.
A verdict is None over a cut LTS.  Approximate bisimulation co-simulates
two closed systems per scenario and compares observed trajectories;
refutation is sound, consistency is empirical.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import flows as fl
from .kernel import (
    Abstraction,
    ContinuousUnsupported,
    Proc,
    discrete_transitions,
)
from .simulator import Environment, SimConfig, simulate, trajectory_series
from .syntax import (
    Const,
    Continuous,
    Expr,
    Guard,
    HpiError,
    Input,
    Name,
    NIL,
    Op,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
    SubstitutionError,
    Sum,
    Var,
    b_ge,
    b_le,
    canonical_key,
    constructs,
    expr_names,
    fresh,
    prune,
    prefixed,
    refresh,
    restrict,
    subst_expr,
    substitute,
    value_names,
)

# shared placeholders so extruded private names compare equal across systems
_PRIV = [fresh(f"priv{i}") for i in range(8)]


@dataclass
class LTS:
    states: dict  # canonical key -> representative Process
    transitions: dict  # key -> tuple of (label, key)
    initial: str
    max_states: int  # the bounds it was built under
    repl_depth: int
    bounded: bool = False  # hit the state bound
    skipped: int = 0  # instantiations dropped (value into channel position)
    diagnostics: list = field(default_factory=list)  # what its enumerations left undecided, each once

    @property
    def truncated(self) -> bool:  # replication depth exhausted somewhere
        return any(kind == "repl-depth-truncated" for kind, _ in self.diagnostics)

    @property
    def cut(self) -> list:
        """Why edges may be missing, one reason a line; empty when none are."""
        return ([f"hit max_states={self.max_states}"] * self.bounded
                + [f"hit repl depth={self.repl_depth}" if kind == "repl-depth-truncated"
                   else "undefined guard" + (f" at {tag}" if tag else "") for kind, tag in self.diagnostics]
                + [f"dropped {self.skipped} instantiations"] * bool(self.skipped))


def _shown(e: Expr):
    """A payload value as a label shows it: a real, an extrusion placeholder
    by its position, or the display of a free name."""
    v = fl.eval_expr(e)
    if fl.is_real(v):
        return float(v)
    if isinstance(v, Var):
        return ("priv", _PRIV.index(v.name)) if v.name in _PRIV else ("name", v.name.display)
    raise SubstitutionError("payload is neither a value nor a name")


def build_lts(
    p: Process,
    universe: Sequence[float] = (0.0, 1.0),
    max_states: int = 4000,
    repl_depth: int = 4,
) -> LTS:
    """The LTS of p.  A root move has a target and a label per substitution:
    the empty one if silent, each universe tuple for an input, the extrusion
    renaming for an output.  One that puts a value where a name is needed,
    or shows a payload that is neither, is counted in `skipped`."""
    for bound, v, least in (("max_states", max_states, 1), ("repl_depth", repl_depth, 0)):
        if v < least:
            raise ValueError(f"{bound} must be at least {least}, got {v}")
    if Continuous in constructs(p):
        raise ContinuousUnsupported("LTS construction covers discrete fragments only")
    universe = list(dict.fromkeys(float(v) for v in universe))  # each value once, in order
    if not all(map(math.isfinite, universe)):
        raise ValueError(f"universe values must be finite, got {universe}")
    p0 = prune(refresh(p))
    init = canonical_key(p0, flatten=True)
    lts = LTS({init: p0}, {}, init, max_states, repl_depth)
    states, todo = lts.states, [init]
    while todo:
        key = todo.pop()
        if key in lts.transitions:
            continue
        enum = discrete_transitions(states[key], repl_depth)
        lts.diagnostics.extend(d for d in enum.diagnostics if d not in lts.diagnostics)
        out = []
        for tr in enum.transitions:
            agent = tr.agent
            if isinstance(agent, Proc):
                head, shown, subs = None, (), [{}]
            elif isinstance(agent, Abstraction):
                head, shown = ("in", tr.chan.display), [Var(b) for b in agent.binders]
                subs = [dict(zip(agent.binders, map(Const, vals)))
                        for vals in itertools.product(universe, repeat=len(agent.binders))]
            else:
                if len(agent.restricted) > len(_PRIV):
                    raise HpiError("too many extruded names in one concretion")
                head, shown = ("out", tr.chan.display), agent.payload
                subs = [{n: Var(_PRIV[i]) for i, n in enumerate(agent.restricted)}]
            for sub in subs:
                try:
                    label = (*head, tuple([_shown(subst_expr(e, sub)) for e in shown])) if head else ("tau",)
                    tgt = prune(substitute(agent.body, sub))
                except SubstitutionError:
                    lts.skipped += 1
                    continue
                tkey = canonical_key(tgt, flatten=True)
                if tkey not in states:
                    if len(states) >= max_states:
                        lts.bounded = True
                        continue
                    states[tkey] = tgt
                    todo.append(tkey)
                out.append((label, tkey))
        lts.transitions[key] = tuple(out)
    return lts


# ---------------------------------------------------------------------------
# Partition refinement
# ---------------------------------------------------------------------------


def _merged_edges(a: LTS, b: LTS):
    edges = {}
    for tag, lts in (("a", a), ("b", b)):
        for key, outs in lts.transitions.items():
            edges[(tag, key)] = tuple((l, (tag, t)) for l, t in outs)
    return edges


def _refine(edges: dict) -> dict:
    """Coarsest partition in which the states of a block have equal sets of
    (label, successor block); blocks are numbered by their first member in
    sorted state order."""
    states = sorted(edges, key=lambda x: (x[0], x[1]))
    index = {s: i for i, s in enumerate(states)}
    labels: dict = {}
    succ = [[(labels.setdefault(l, len(labels)), index[t]) for l, t in edges[s]] for s in states]
    pred = [[] for _ in states]
    for s, outs in enumerate(succ):
        for _, t in outs:
            pred[t].append(s)
    blk = [0] * len(states)
    members = [set(range(len(states)))]
    bsig = [None]  # the signature of a block's members that are not touched
    touched = {0: set(members[0])} if states else {}
    while touched:
        b, dirty = touched.popitem()
        groups: dict = {}
        for s in dirty:
            groups.setdefault(frozenset((l, blk[t]) for l, t in succ[s]), set()).add(s)
        clean = len(members[b]) - len(dirty)
        if clean:
            groups.setdefault(bsig[b], set())
        # the largest group keeps the id, so a state moves O(log n) times
        keep = max(groups, key=lambda g: len(groups[g]) + (clean if g == bsig[b] else 0))
        moved = []
        for sig, group in groups.items():
            if sig == keep:
                continue
            if clean and sig == bsig[b]:
                group |= members[b] - dirty
            members[b] -= group
            for s in group:
                blk[s] = len(members)
            members.append(group)
            bsig.append(sig)
            moved.extend(group)
        bsig[b] = keep
        for t in moved:
            for s in pred[t]:
                touched.setdefault(blk[s], set()).add(s)
    first: dict = {}
    return {s: first.setdefault(blk[i], len(first)) for i, s in enumerate(states)}


def _saturate(edges: dict) -> dict:
    """Weak steps: s =tau=> u for u in s's reflexive tau closure, s => -l-> => t for visible l."""
    closure = {}
    for s in edges:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for l, t in edges[u]:
                if l == ("tau",) and t not in seen:
                    seen.add(t)
                    stack.append(t)
        closure[s] = seen
    weak = {}
    for s in edges:
        out = set()
        for u in closure[s]:
            out.add((("tau",), u))
            for l, t in edges[u]:
                if l != ("tau",):
                    out.update((l, t2) for t2 in closure[t])
        weak[s] = out
    return weak


def _verdict(a: LTS, b: LTS, edges: dict):
    """(initials related, partition as (system, key) -> block id) of edges
    over a and b; the verdict is None when either LTS is cut (see LTS.cut),
    since a missing edge can make either answer wrong."""
    block = _refine(edges)
    return None if a.cut or b.cut else block[("a", a.initial)] == block[("b", b.initial)], block


def strong_bisim(a: LTS, b: LTS):
    """Coarsest strong bisimulation: see _verdict."""
    return _verdict(a, b, _merged_edges(a, b))


def weak_bisim(a: LTS, b: LTS):
    """Coarsest weak bisimulation, the strong one of the saturated graph."""
    return _verdict(a, b, _saturate(_merged_edges(a, b)))


# ---------------------------------------------------------------------------
# Approximate bisimulation by co-simulation
# ---------------------------------------------------------------------------


@dataclass
class ApproxVerdict:
    status: str  # refuted | consistent
    eps: float
    delta: float
    max_distance: float = 0.0
    max_skew: float = 0.0
    scenarios: int = 0
    counterexample: Optional[dict] = None
    per_scenario: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def bind_env(p: Process, spec):
    """Resolve an environment keyed by display name against the names p
    reads as values; a key that two of them display is refused."""
    if spec is None:
        return None
    table: dict = {}
    for n in value_names(p):
        table.setdefault(n.display, []).append(n)

    def conv(d: dict) -> dict:
        out = {}
        for k, v in d.items():
            ns = table.get(k, ())
            if len(ns) > 1:
                raise HpiError(f"environment key {k!r} is the display of {len(ns)} distinct names")
            if ns:
                out[ns[0]] = float(v)
        return out

    if isinstance(spec, dict):
        return Environment(conv(spec))
    return Environment([(t, conv(d)) for t, d in spec])


def _total_evolve(trace) -> float:
    return sum(ev.values[0] for ev in trace if ev.kind == "Evolve")


def check_scenario(p: Process, q: Process, cfg: SimConfig, sc, observe: Sequence[str] = ()) -> dict:
    """Co-simulate p and q under one scenario: the evolution-time skew, the
    largest distance on an observed variable, that variable, and the
    diagnostics of each run, keyed "a" for p and "b" for q."""
    rp = simulate(p, cfg, bind_env(p, sc))
    rq = simulate(q, cfg, bind_env(q, sc))
    skew = abs(_total_evolve(rp.trace) - _total_evolve(rq.trace))
    dist = 0.0
    worst_var = None
    for var in observe:
        t1, v1 = trajectory_series(rp.segments, var)
        t2, v2 = trajectory_series(rq.segments, var)
        if len(t1) == 0 and len(t2) == 0:
            raise HpiError(f"observed variable {var!r} not found in either system")
        if len(t1) == 0 or len(t2) == 0:
            raise HpiError(f"observed variable {var!r} missing from one system")
        end = min(t1[-1], t2[-1])
        grid = np.unique(np.concatenate([t1[t1 <= end], t2[t2 <= end]]))
        a = np.interp(grid, t1, v1)
        b = np.interp(grid, t2, v2)
        d = float(np.max(np.abs(a - b))) if len(grid) else 0.0
        if d > dist:
            dist, worst_var = d, var
    return {"skew": skew, "distance": dist, "variable": worst_var,
            "diagnostics": {"a": rp.diagnostics, "b": rq.diagnostics}}


def check_tolerances(eps: float, delta: float) -> None:
    """Reject NaN or negative tolerances: a NaN bound passes every
    comparison, so every scenario would read as consistent."""
    for name, v in (("eps", eps), ("delta", delta)):
        if not v >= 0:
            raise ValueError(f"{name} must be a non-negative number, got {v}")


def approx_verdict(checks, eps: float, delta: float, scenarios: int) -> ApproxVerdict:
    """Fold per-scenario checks, in scenario order, into one verdict; the
    first scenario beyond a tolerance refutes and ends the fold."""
    check_tolerances(eps, delta)
    verdict = ApproxVerdict("consistent", eps, delta, scenarios=scenarios)
    slack = 1e-6  # numerical slack on top of the declared tolerances
    for idx, c in enumerate(checks):
        verdict.max_skew = max(verdict.max_skew, c["skew"])
        verdict.max_distance = max(verdict.max_distance, c["distance"])
        verdict.per_scenario.append({"scenario": idx, "distance": c["distance"], "skew": c["skew"],
                                     "diagnostics": c.get("diagnostics", {})})  # a check made by hand may have none
        if c["skew"] > delta + slack or c["distance"] > eps + slack:
            verdict.status = "refuted"
            verdict.counterexample = {"scenario": idx, **c}
            break
    return verdict


_INHERITED = None  # a pool worker's (p, q, cfg, scenarios, observe, started)


def _inherit(*inputs) -> None:
    global _INHERITED
    _INHERITED = inputs


def _check_inherited(i: int) -> dict:
    p, q, cfg, scenarios, observe, started = _INHERITED
    started[i] = os.getpid()
    return check_scenario(p, q, cfg, scenarios[i], observe)


def _pooled_checks(pool, n: int, started):
    """The checks of scenarios 0..n-1 in order.  A pool replaces a dead
    worker without a word, so while a check is awaited a dead first worker
    raises, naming the last scenario it started (`started`: pid by index)."""
    import multiprocessing as mp

    workers, checks = list(pool._pool), pool.imap(_check_inherited, range(n), chunksize=1)
    for i in range(n):
        while True:
            try:
                yield checks.next(timeout=0.1)
                break
            except mp.TimeoutError:
                for w in workers:
                    if w.exitcode is not None:
                        lost = max((j for j in range(n) if started[j] == w.pid), default=i)
                        raise HpiError(f"scenario {lost}: its worker process ended with exit code {w.exitcode}") from None


def approx_bisim(
    p: Process,
    q: Process,
    eps: float,
    delta: float,
    cfg: SimConfig,
    scenarios: Sequence = (None,),
    observe: Sequence[str] = (),
    jobs: Optional[int] = None,
) -> ApproxVerdict:
    """Co-simulate p and q once per scenario and fold the checks.

    The scenarios run in a pool of min(jobs, len(scenarios)) fork-started
    workers (jobs=None: the usable CPUs), which inherit the inputs through
    the pool initializer: only a scenario index and check_scenario's dict
    are pickled, and a worker's error reaches the caller as raised.  An
    ordered imap feeds approx_verdict, so the first refutation ends the
    fold and the verdict is the serial one.  A worker that dies raises an
    HpiError naming its scenario, and no worker outlives the call.
    The scenarios run in-process when there would be fewer than two
    workers, when the platform cannot fork, when the caller runs other
    threads, or when it is itself a daemonic worker."""
    check_tolerances(eps, delta)
    if jobs is None:
        jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(scenarios))
    if workers > 1:
        import multiprocessing as mp  # here only: most runs never start a pool

        # a fork while another thread holds a lock (say syntax's counter lock) deadlocks the child
        if "fork" in mp.get_all_start_methods() and threading.active_count() == 1 and not mp.current_process().daemon:
            started = mp.RawArray("q", len(scenarios))  # shared memory, inherited by the fork
            pool = mp.get_context("fork").Pool(workers, _inherit, (p, q, cfg, scenarios, observe, started))
            try:
                return approx_verdict(_pooled_checks(pool, len(scenarios), started), eps, delta, len(scenarios))
            finally:
                pool.terminate()
                pool.join()
    checks = (check_scenario(p, q, cfg, sc, observe) for sc in scenarios)
    return approx_verdict(checks, eps, delta, len(scenarios))


# ---------------------------------------------------------------------------
# Discretization transform (stepped RK4 recursion)
# ---------------------------------------------------------------------------


def rk4_increment(vars_: Sequence[Name], field_: Sequence[Expr], h: float) -> list:
    """Phi(y, h) per coordinate, as expression trees over vars_."""
    y = [Var(v) for v in vars_]

    def at(offset: Sequence[Expr]) -> list:
        sub = dict(zip(vars_, offset))
        return [subst_expr(f, sub) for f in field_]

    def shift(ks: list, c: float) -> list:
        return [Op("+", (y[i], Op("*", (Const(c * h), ks[i])))) for i in range(len(y))]

    k1 = at(y)
    k2 = at(shift(k1, 0.5))
    k3 = at(shift(k2, 0.5))
    k4 = at(shift(k3, 1.0))
    out = []
    for i in range(len(y)):
        s = Op("+", (k1[i], Op("+", (Op("*", (Const(2.0), k2[i])), Op("+", (Op("*", (Const(2.0), k3[i])), k4[i]))))))
        out.append(Op("/", (s, Const(6.0))))
    return out


def discretize(
    init: Sequence[Expr],
    vars_: Sequence[Name],
    field_: Sequence[Expr],
    duration: float,
    step: float,
) -> Process:
    """A stepped recursion equivalent to {init | vars' = field} up to the RK4
    local error: each round idles `step` seconds in a stopped-clock cell,
    then recurses with the state advanced by the RK4 increment."""
    if not (0 < duration < math.inf and 0 < step < math.inf):
        raise ValueError("duration and step must be positive and finite")
    n = len(vars_)
    if not (len(init) == len(field_) == n):
        raise ValueError("init, vars, and field lengths must agree")
    allowed = set(vars_)
    for f in field_:
        if not expr_names(f) <= allowed:
            raise ValueError("field references a name outside vars")

    x = fresh("x")
    ys = tuple(fresh(v.display) for v in vars_)
    z = fresh("z")

    def step_cell(dur: Expr, tag: str, cont: Process) -> Process:
        c = fresh("c")
        ws = tuple(fresh(v.display) for v in vars_)
        cell = Continuous(
            (Const(0.0),) + tuple(Var(y) for y in ys),
            (c,) + ws,
            (Const(1.0),) + tuple(Const(0.0) for _ in ys),
            Op("<", (Var(c), dur)),
            frozenset(),
        )
        return restrict((c,) + ws, Sum(((cell, cont),), tag=tag))

    phi = rk4_increment(ys, [subst_expr(f, dict(zip(vars_, map(Var, ys)))) for f in field_], step)
    advanced = tuple(Op("+", (Var(ys[i]), Op("*", (phi[i], Const(step))))) for i in range(n))
    recurse = prefixed(Output(x, advanced + (Op("-", (Var(z), Const(step))),)), NIL, tag="disc:recurse")

    # the budget z decrements by floating subtraction; a tol-wide band keeps
    # the three guards total and mutually exclusive despite rounding drift
    tol = step * 1e-9
    full = (Guard(b_ge(Var(z), Const(step - tol))), step_cell(Const(step), "disc:step", recurse))
    partial = (
        Guard(Op("and", (Op("<", (Const(tol), Var(z))), Op("<", (Var(z), Const(step - tol)))))),
        step_cell(Var(z), "disc:final", NIL),
    )
    halt = (Guard(b_le(Var(z), Const(tol))), NIL)
    body = Sum((full, partial, halt), tag="disc:dispatch")

    starter = prefixed(Output(x, tuple(init) + (Const(float(duration)),)), NIL, tag="disc:start")
    server = Replication(prefixed(Input(x, ys + (z,)), body, tag="disc:loop"))
    return Restriction(x, Parallel(starter, server))


def lipschitz_estimate(
    vars_: Sequence[Name],
    field_: Sequence[Expr],
    box: Sequence[tuple],
    seed: int = 0,
) -> float:
    """Max observed |f(a)-f(b)| / |a-b| over random pairs in the box."""
    if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi for lo, hi in box):
        raise ValueError(f"box bounds must be finite with lo < hi, got {list(box)}")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    best = 0.0
    for _ in range(10_000):
        a = lo + rng.random(len(box)) * (hi - lo)
        b = lo + rng.random(len(box)) * (hi - lo)
        den = float(np.max(np.abs(a - b)))
        if den == 0.0:
            continue
        fa = [fl.eval_expr(f, dict(zip(vars_, a))) for f in field_]
        fb = [fl.eval_expr(f, dict(zip(vars_, b))) for f in field_]
        if not all(map(fl.is_real, fa + fb)):
            continue
        num = max(abs(u - w) for u, w in zip(fa, fb))
        best = max(best, num / den)
    return best


def suggest_step(eps: float, duration: float, lipschitz: float) -> float:
    """Step-size heuristic with a 10x safety factor; it tends to eps / (10*T) as L*T goes to 0."""
    if lipschitz <= 0:
        return duration / 10.0
    try:
        return eps * lipschitz / math.expm1(lipschitz * duration) / 10.0
    except OverflowError:
        raise ValueError(f"exp(L*T) overflows for the Lipschitz estimate {lipschitz:.4g}; give --step") from None
