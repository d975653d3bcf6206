"""Bisimulation checking and the stepped discretization transform.

Strong and weak bisimulation run partition refinement over finite labelled
transition systems built from discrete fragments, with input prefixes
instantiated over a declared value universe.  The refinement interns the
states of both systems as integers in sorted (tag, key) order and the
labels as integers, then works from a worklist: when states move to a new
block, only their predecessors are re-signed, and a block splits by the
(label, successor block) sets of those predecessors while its largest group
keeps the id.  The result numbers blocks by their first member in sorted
state order.  Weak bisimulation refines the saturated relation (tau
closure around each visible step).  Approximate bisimulation
co-simulates two closed systems per scenario and compares observed
trajectories; refutation is sound, consistency is empirical.
"""

from __future__ import annotations

import itertools
import math
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
    BAnd,
    Const,
    Continuous,
    Expr,
    Guard,
    HpiError,
    Input,
    Less,
    Name,
    NIL,
    Op,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
    Substitution,
    SubstitutionError,
    Sum,
    Var,
    b_ge,
    b_le,
    canonical_key,
    constructs,
    expr_names,
    free_names,
    fresh,
    prune,
    prefixed,
    refresh,
    restrict,
    subst_expr,
    substitute,
)

# shared placeholders so extruded private names compare equal across systems
_PRIV = [fresh(f"priv{i}") for i in range(8)]


@dataclass
class LTS:
    states: dict  # canonical key -> representative Process
    transitions: dict  # key -> tuple of (label, key)
    initial: str
    bounded: bool = False  # hit the state bound
    truncated: bool = False  # replication depth exhausted somewhere
    skipped: int = 0  # instantiations dropped (value into channel position)


def build_lts(
    p: Process,
    universe: Sequence[float] = (0.0, 1.0),
    max_states: int = 4000,
    repl_depth: int = 4,
) -> LTS:
    if Continuous in constructs(p):
        raise ContinuousUnsupported("LTS construction covers discrete fragments only")
    universe = [float(v) for v in universe]
    if not all(map(math.isfinite, universe)):
        raise ValueError(f"universe values must be finite, got {universe}")
    p0 = prune(refresh(p))
    init = canonical_key(p0, flatten=True)
    states = {init: p0}
    transitions: dict = {}
    bounded = False
    truncated = False
    skipped = 0
    todo = [init]
    while todo:
        key = todo.pop()
        if key in transitions:
            continue
        proc = states[key]
        enum = discrete_transitions(proc, repl_depth)
        truncated = truncated or enum.truncated
        out = []
        for tr in enum.transitions:
            if isinstance(tr.agent, Proc):
                targets = [(("tau",), tr.agent.body)]
            elif isinstance(tr.agent, Abstraction):
                f = tr.agent
                targets = []
                for vals in itertools.product(universe, repeat=len(f.binders)):
                    sub = Substitution({b: Const(v) for b, v in zip(f.binders, vals)})
                    try:
                        tgt = substitute(f.body, sub)
                    except SubstitutionError:
                        skipped += 1
                        continue
                    targets.append((("in", tr.chan.display, vals), tgt))
            else:
                c = tr.agent
                if len(c.restricted) > len(_PRIV):
                    raise HpiError("too many extruded names in one concretion")
                ren = Substitution(
                    {n: Var(_PRIV[i]) for i, n in enumerate(c.restricted)}
                )
                vals = []
                ok = True
                for e in c.payload:
                    v = fl.eval_expr(subst_expr(e, ren))
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        vals.append(float(v))
                    elif isinstance(v, Var):
                        vals.append(("name", v.name.display))
                    else:
                        ok = False  # payload not a value or a name
                        break
                if not ok:
                    skipped += 1
                    continue
                try:
                    tgt = substitute(c.body, ren)
                except SubstitutionError:
                    skipped += 1
                    continue
                targets = [(("out", tr.chan.display, tuple(vals)), tgt)]
            for label, tgt in targets:
                tgt = prune(tgt)
                tkey = canonical_key(tgt, flatten=True)
                if tkey not in states:
                    if len(states) >= max_states:
                        bounded = True
                        continue
                    states[tkey] = tgt
                    todo.append(tkey)
                out.append((label, tkey))
        transitions[key] = tuple(out)
    return LTS(states, transitions, init, bounded, truncated, skipped)


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


def strong_bisim(a: LTS, b: LTS):
    """Coarsest strong bisimulation over the disjoint union; returns
    (initials related, partition as key -> block id)."""
    edges = _merged_edges(a, b)
    block = _refine(edges)
    return block[("a", a.initial)] == block[("b", b.initial)], block


def _saturate(edges: dict) -> dict:
    # tau closure per state (reflexive-transitive)
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
            out.add((("tau",), u))  # s => u, matching a tau by zero-or-more
            for l, t in edges[u]:
                if l == ("tau",):
                    continue
                if l[0] == "in":
                    out.add((l, t))  # no closure after an input
                else:
                    for t2 in closure[t]:  # output bodies close under =>
                        out.add((l, t2))
        weak[s] = out
    return weak


def weak_bisim(a: LTS, b: LTS):
    edges = _saturate(_merged_edges(a, b))
    block = _refine(edges)
    return block[("a", a.initial)] == block[("b", b.initial)], block


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
    """Resolve an environment keyed by display name against p's free names."""
    if spec is None:
        return None
    table = {n.display: n for n in free_names(p)}

    def conv(d: dict) -> dict:
        out = {}
        for k, v in d.items():
            n = table.get(k)
            if n is not None:
                out[n] = float(v)
        return out

    if isinstance(spec, dict):
        return Environment(conv(spec))
    return Environment([(t, conv(d)) for t, d in spec])


def _total_evolve(trace) -> float:
    return sum(ev.values[0] for ev in trace if ev.kind == "Evolve")


def check_scenario(p: Process, q: Process, cfg: SimConfig, sc, observe: Sequence[str] = ()) -> dict:
    """Co-simulate p and q under one scenario: the evolution-time skew, the
    largest distance on an observed variable and that variable."""
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
    return {"skew": skew, "distance": dist, "variable": worst_var}


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
        verdict.per_scenario.append({"scenario": idx, "distance": c["distance"], "skew": c["skew"]})
        if c["skew"] > delta + slack or c["distance"] > eps + slack:
            verdict.status = "refuted"
            verdict.counterexample = {"scenario": idx, **c}
            break
    return verdict


def approx_bisim(
    p: Process,
    q: Process,
    eps: float,
    delta: float,
    cfg: SimConfig,
    scenarios: Sequence = (None,),
    observe: Sequence[str] = (),
) -> ApproxVerdict:
    checks = (check_scenario(p, q, cfg, sc, observe) for sc in scenarios)
    return approx_verdict(checks, eps, delta, len(scenarios))


# ---------------------------------------------------------------------------
# Discretization transform (stepped RK4 recursion)
# ---------------------------------------------------------------------------


def rk4_increment(vars_: Sequence[Name], field_: Sequence[Expr], h: float) -> list:
    """Phi(y, h) per coordinate, as expression trees over vars_."""
    y = [Var(v) for v in vars_]

    def at(offset: Sequence[Expr]) -> list:
        sub = Substitution(dict(zip(vars_, offset)))
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
            Less(Var(c), dur),
            frozenset(),
        )
        return restrict((c,) + ws, Sum(((cell, cont),), tag=tag))

    phi = rk4_increment(ys, [subst_expr(f, Substitution(dict(zip(vars_, (Var(y) for y in ys))))) for f in field_], step)
    advanced = tuple(Op("+", (Var(ys[i]), Op("*", (phi[i], Const(step))))) for i in range(n))
    recurse = prefixed(Output(x, advanced + (Op("-", (Var(z), Const(step))),)), NIL, tag="disc:recurse")

    # the budget z decrements by floating subtraction; a tol-wide band keeps
    # the three guards total and mutually exclusive despite rounding drift
    tol = step * 1e-9
    full = (Guard(b_ge(Var(z), Const(step - tol))), step_cell(Const(step), "disc:step", recurse))
    partial = (
        Guard(BAnd(Less(Const(tol), Var(z)), Less(Var(z), Const(step - tol)))),
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
        if not all(isinstance(v, (int, float)) for v in fa + fb):
            continue
        num = max(abs(u - w) for u, w in zip(fa, fb))
        best = max(best, num / den)
    return best


def suggest_step(eps: float, duration: float, lipschitz: float) -> float:
    """Step-size heuristic with a 10x safety factor."""
    if lipschitz <= 0:
        return duration / 10.0
    return eps * lipschitz / (math.exp(lipschitz * duration) - 1.0) / 10.0
