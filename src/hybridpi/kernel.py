"""The two rule sets of the operational semantics.

Discrete transitions take a process to an agent, and the agent's type is
the move's label (Milner's commitments): a process after a silent move, an
abstraction awaiting values after an input on the transition's channel, a
concretion carrying values after an output on it.  A node's enumeration,
a value memoised on the node, lists its children's moves, the same
objects, then its own syncs, and carries their diagnostics in walk order;
a restriction drops the moves on its names.  A move names its kind,
channel, payload, tags and shape (the agent's class) where it is made, and
its agent at the root is built only when read (the simulator reads the
one move it commits): a loop walks the move's path down from the root by
index, then lifts its agent back up through the parallels and restrictions
passed.  A replication's copy is the memoised moves of its body under a
fresh unfold stamp, refreshed when one of its moves is committed or
inspected; the refresh renews only the sums a run goes on to read.
A sum's frame, memoised for every depth (its moves never depend on the
bound), is also where the continuous survey reads which of its branches
are live, so each guard is evaluated once per node.  Continuous
evolution integrates every active ODE cell jointly, as one system,
with fixed-step RK4 and localizes boundary crossings by bisection; a step
reports its duration, the ready set, the pruned successor, the cells that
stopped and the joint flow of every cell variable.  The system's stepper is
compiled once per shape: the generated source of its fields and
boundaries, over positional state, environment and constant parameters,
is the key of the stepper cache.  The walk that generates that source is
the only place that tells state, environment and constant apart: a name
that no cell guarantees is an environment name, numbered in the order
the walk first meets it.  The compiled ``make(env, consts)``
returns ``(advance, bounds)``: ``advance`` runs the whole fixed-step loop,
recording the samples, up to the horizon or the first step that crosses a
boundary, and ``bounds`` evaluates the boundaries at one state for the
bisection of that crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

from . import flows as fl
from .syntax import (
    Const,
    Continuous,
    Expr,
    Guard,
    HpiError,
    Input,
    Name,
    OPERATORS,
    Output,
    Parallel,
    Process,
    Replication,
    Restriction,
    Sum,
    Tau,
    Var,
    constructs,
    expr_names,
    free_names,
    fresh,
    is_nil,
    memo,
    prune,
    refresh,
    rename_apart,
    restrict,
    shape,
    subst_expr,
    substitute,
)

# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class UrgencyViolation(HpiError):
    pass


class OpenSystem(HpiError):
    pass


class UndefinedDynamics(HpiError):
    pass


class StepOverflow(HpiError):
    pass


class ContinuousUnsupported(HpiError):
    pass


# ---------------------------------------------------------------------------
# Agents
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class Proc:
    body: Process


@dataclass(unsafe_hash=True)
class Abstraction:
    binders: tuple
    body: Process


@dataclass(unsafe_hash=True)
class Concretion:
    restricted: tuple
    payload: tuple
    body: Process

    def __post_init__(self):
        if not frozenset().union(*map(expr_names, self.payload)).issuperset(self.restricted):
            raise ValueError("restricted names of a concretion must occur in its payload")


Agent = Union[Proc, Abstraction, Concretion]


class Transition:
    """One discrete move.  The agent is its label: a Proc is silent, an
    Abstraction is an input on `chan` and a Concretion an output on `chan`;
    `shape` is that class, known at enumeration.

    Every node above the one that made a move lists the same object, so its
    own agent is its agent at that node: a sum's is built with it, a sync's,
    a copy's or a replication's on first read.  An enumeration's root moves
    are views of (root frame, index), lifted to the root when read."""

    __slots__ = ("kind", "chan", "payload", "tags", "shape", "_agent", "_make", "_args")

    def __init__(self, kind, chan, payload, tags, shape, agent=None, make=None, args=None):
        self.kind = kind  # tau | pass | in | out | sense | actuate | sync
        self.chan = chan
        self.payload = payload
        self.tags = tags
        self.shape = shape
        self._agent = agent
        self._make = make  # agent = make(*args), on first read
        self._args = args

    @property
    def agent(self) -> Agent:
        if self._agent is None:
            self._agent = self._make(*self._args)
            self._make = self._args = None
        return self._agent


def _move(agent: Agent, kind: str, chan: Optional[Name] = None, payload: Optional[tuple] = None, tags: tuple = ()):
    """A move whose agent is built already."""
    return Transition(kind, chan, payload, tags, type(agent), agent)


def _pending(t: Transition, make, args: tuple, tags: Optional[tuple] = None) -> Transition:
    """A move with t's label (and `tags`, when given), its agent make(*args)."""
    return Transition(t.kind, t.chan, t.payload, t.tags if tags is None else tags, t.shape, None, make, args)


@dataclass(slots=True, eq=False)
class _Frame:
    """What one enumeration of a node saw: its moves in order, the frames
    of the children they came from, and the diagnostics it met, in walk
    order and its children's concatenated (a cut replication's has tag
    None).  A frame without kids made its moves (a sum's, a copy's, a
    replication's).  A parallel's lists its left's, its right's, then its
    syncs, and `x` holds its two sides (not the node: a memo that points
    back at its node is a cycle, freed only by the cyclic collector).  A
    restriction chain's lists its body's moves on none of its names, and
    `x` holds the names and the body indices kept (None when all)."""

    moves: list
    kids: tuple = ()
    x: object = None
    diagnostics: tuple = ()


def _agent_at(f: _Frame, i: int, persist: Optional[Replication] = None) -> Agent:
    """The agent of f's move i at f's node, beside `persist` when given.  One
    loop walks down by index to the frame that made the move, reads that
    move's own agent, and lifts it back up through the nodes passed."""
    lifts = []
    while f.kids:
        n = len(f.kids[0].moves)
        if len(f.kids) == 1:  # a restriction chain
            names, kept = f.x
            lifts += [(None, name) for name in names]
            f, i = f.kids[0], i if kept is None else kept[i]
        elif i < n:
            lifts.append((True, f.x[1]))
            f = f.kids[0]
        elif i - n < len(f.kids[1].moves):
            lifts.append((False, f.x[0]))
            f, i = f.kids[1], i - n
        else:
            break  # a sync made here
    agent = f.moves[i].agent
    for left, x in reversed(lifts):
        agent = restrict_agent(x, agent) if left is None else par_agent(agent, x, left)
    return agent if persist is None else par_agent(agent, persist, True)


@dataclass
class Enumeration:
    frame: Optional[_Frame] = None  # the root's: its moves, shared with the nodes below
    diagnostics: list = field(default_factory=list)  # each once, in walk order
    counter: list = field(default_factory=lambda: [0])  # replication unfold stamps

    @property
    def truncated(self) -> bool:  # replication depth exhausted somewhere
        return any(kind == "repl-depth-truncated" for kind, _ in self.diagnostics)

    @cached_property
    def transitions(self) -> list:  # a view per root move, its agent lifted when read
        return [_pending(t, _agent_at, (self.frame, i)) for i, t in enumerate(self.frame.moves)]

    def agent(self, i: int) -> Agent:  # root move i's agent, lifted without a view
        return _agent_at(self.frame, i)


# ---------------------------------------------------------------------------
# Ion laws: compose agents with restrictions and parallel partners
# ---------------------------------------------------------------------------


def _apart(a: Union[Abstraction, Concretion], avoid: frozenset) -> Agent:
    """a with its own bound names, an abstraction's binders or a concretion's
    restricted names, renamed apart from `avoid`, drawn in order."""
    names = a.binders if isinstance(a, Abstraction) else a.restricted
    new, sub = rename_apart(names, avoid)
    if not sub:
        return a
    if isinstance(a, Abstraction):
        return Abstraction(new, substitute(a.body, sub))
    return Concretion(new, tuple(subst_expr(e, sub) for e in a.payload), substitute(a.body, sub))


def par_agent(a: Agent, q: Process, left: bool) -> Agent:
    """A ∥ Q (or Q ∥ A when left is False), pushed through the ion prefix."""

    def mk(body: Process) -> Process:
        return Parallel(body, q) if left else Parallel(q, body)

    if isinstance(a, Proc):
        return Proc(mk(a.body))
    a = _apart(a, free_names(q))
    if isinstance(a, Abstraction):
        return Abstraction(a.binders, mk(a.body))
    return Concretion(a.restricted, a.payload, mk(a.body))


def restrict_agent(x: Name, a: Agent) -> Agent:
    """(νx)A, pushed through the ion prefix per the scope laws."""
    if isinstance(a, Proc):
        return Proc(Restriction(x, a.body))
    if isinstance(a, Abstraction):
        return Abstraction(a.binders, Restriction(x, a.body))
    if x in frozenset().union(*map(expr_names, a.payload)):
        return Concretion((x,) + a.restricted, a.payload, a.body)
    return Concretion(a.restricted, a.payload, Restriction(x, a.body))


def apply(f: Abstraction, c: Concretion) -> Process:
    if len(f.binders) != len(c.payload):
        raise HpiError(
            f"arity mismatch: abstraction of {len(f.binders)} applied to {len(c.payload)} values"
        )
    c = _apart(c, free_names(f.body) - set(f.binders))
    # closed payload expressions with a finite value pass by value, keeping
    # transmitted terms small (inf and nan have no literal that parses back)
    norm = []
    for e in c.payload:
        v = fl.eval_expr(e)
        if fl.is_real(v) and math.isfinite(v):
            norm.append(Const(float(v)))
        else:
            norm.append(e)
    body = substitute(f.body, dict(zip(f.binders, norm)))
    return restrict(c.restricted, Parallel(body, c.body))


# ---------------------------------------------------------------------------
# Discrete transitions
# ---------------------------------------------------------------------------


def _sum_transitions(p: Sum, diagnostics: list):
    out = []
    for pi, cont in p.branches:
        tag = (p.tag,) if p.tag else ()
        if isinstance(pi, Tau):
            out.append(_move(Proc(cont), "tau", tags=tag))
        elif isinstance(pi, Input):
            out.append(_move(Abstraction(pi.binders, cont), "in", pi.chan, tags=tag))
        elif isinstance(pi, Output):
            out.append(_move(Concretion((), pi.payload, cont), "out", pi.chan, pi.payload, tag))
        elif isinstance(pi, Guard):
            v = fl.eval_expr(pi.cond)
            if v is True:
                out.append(_move(Proc(cont), "pass", tags=tag))
            elif v is fl.UNDEFINED:
                diagnostics.append(("undefined-guard", p.tag))
        elif isinstance(pi, Continuous):
            keep = Sum(((pi, cont),), tag=p.tag)
            for i, pol in sorted(pi.ready):
                v = pi.vars[i]
                if pol:  # sense: emit the current value
                    out.append(_move(Concretion((), (pi.init[i],), keep), "sense", v, (pi.init[i],), tag))
                else:  # actuate: accept a fresh value
                    x = fresh(v.display + "'")
                    init1 = pi.init[:i] + (Var(x),) + pi.init[i + 1 :]
                    upd = Sum(((Continuous(init1, pi.vars, pi.fields, pi.boundary, pi.ready, pi.binders), cont),), tag=p.tag)
                    out.append(_move(Abstraction((x,), upd), "actuate", v, tags=tag))
    return out


# Process nodes are immutable and successor terms share untouched subtrees,
# so each node memoises its enumeration's frame (see syntax.memo) with the
# depth it was computed at; a sum's with None, which every depth accepts,
# since a sum's moves never depend on the bound.  A frame is a value that
# carries its own diagnostics, so a hit replays nothing.  It lists its
# children's move objects and adds only its own syncs, and it keeps the
# children's frames, so a move's agent is lifted from what the enumeration
# that made it saw, even once a child's memo is replaced.
# Replication copies (and their unfold tags) freeze on first enumeration;
# reruns start from a refreshed root, so the numbering stays reproducible.
# A copy is its body's memoised moves under the copy's stamp, refreshed
# only when one of them is committed or inspected (see _copy); a second
# copy is stamped only where two copies can synchronise (see _trans_inner).
def _trans(p: Process, depth: int, counter: list) -> _Frame:
    if isinstance(p, Replication) and Replication in constructs(p.body):
        # a factory of stateful instances, never memoised: each instance it
        # spawns must carry a fresh unfold stamp so its own events stay
        # distinguishable
        return _trans_inner(p, depth, counter)
    hit = getattr(p, "_trans", None)
    if hit is not None and (hit[0] == depth or hit[0] is None):
        return hit[1]
    return memo(p, "_trans", (None if isinstance(p, Sum) else depth, _trans_inner(p, depth, counter)))[1]


def _syncs(left: _Frame, right: _Frame, persist: Optional[Process] = None) -> list:
    """Communications between a move of `left` and one of `right`,
    left-major; each records its input and output side as (frame, index).
    `persist` (a replication) is kept in parallel with each merged target."""
    out = []
    for i, tl in enumerate(left.moves):
        for j, tr in enumerate(right.moves):
            if tl.shape is Abstraction and tr.shape is Concretion and tl.chan == tr.chan:
                sides, co = (left, i, right, j), tr
            elif tl.shape is Concretion and tr.shape is Abstraction and tl.chan == tr.chan:
                sides, co = (right, j, left, i), tl
            else:
                continue
            kinds = (tl.kind, tr.kind)
            kind = "sense" if "sense" in kinds else "actuate" if "actuate" in kinds else "sync"
            out.append(Transition(kind, co.chan, co.payload, tl.tags + tr.tags, Proc, None, _sync_agent, sides + (persist,)))
    return out


def _sync_agent(ff: _Frame, fi: int, cf: _Frame, ci: int, persist: Optional[Process]) -> Proc:
    merged = apply(_agent_at(ff, fi), _agent_at(cf, ci))
    return Proc(merged if persist is None else Parallel(merged, persist))


def _stamp_agent(f: _Frame, i: int, suffix: str) -> Agent:
    """The agent of f's move i in a copy refreshed with ``suffix``: a
    refresh of that agent, its own binders or extruded names renewed too."""
    a = _agent_at(f, i)
    if isinstance(a, Proc):
        return Proc(refresh(a.body, suffix))
    names = a.binders if isinstance(a, Abstraction) else a.restricted
    new, sub = rename_apart(names, frozenset(names))
    body = refresh(a.body, suffix, sub)
    if isinstance(a, Abstraction):
        return Abstraction(new, body)
    return Concretion(new, tuple(subst_expr(e, sub) for e in a.payload) if sub else a.payload, body)


def _copy(p: Replication, depth: int, counter: list) -> _Frame:
    """The moves of a fresh copy of p's body, its tags and diagnostics
    stamped with a new unfold index.  A body that unfolds replications of
    its own while it is enumerated draws their stamps from a refreshed copy;
    any other body lends its memoised moves, stamped when forced."""
    counter[0] += 1
    suffix = f"#{counter[0]}"
    if shape(p.body)[2]:  # a replication unguarded in the body
        return _trans(refresh(p.body, suffix), depth, counter)
    base = _trans(p.body, depth, counter)
    moves = [_pending(t, _stamp_agent, (base, i, suffix), tuple(g + suffix for g in t.tags)) for i, t in enumerate(base.moves)]
    diagnostics = tuple((kind, f"{tag}{suffix}" if tag else tag) for kind, tag in base.diagnostics)
    return _Frame(moves, (), None, diagnostics)


def _trans_inner(p: Process, depth: int, counter: list) -> _Frame:
    if isinstance(p, Sum):
        diagnostics: list = []
        moves = _sum_transitions(p, diagnostics)
        return _Frame(moves, (), None, tuple(diagnostics[:1]))  # each is ("undefined-guard", p.tag)
    if isinstance(p, Parallel):
        left = _trans(p.left, depth, counter)
        right = _trans(p.right, depth, counter)
        return _Frame(left.moves + right.moves + _syncs(left, right), (left, right), (p.left, p.right),
                      left.diagnostics + right.diagnostics)
    if isinstance(p, Restriction):
        # a chain of restrictions in one pass: drop the moves on any of its
        # names; the agents are wrapped innermost name first when read
        names = []
        while isinstance(p, Restriction):
            names.append(p.name)
            p = p.body
        body = _trans(p, depth, counter)
        hidden = set(names)
        kept = [i for i, t in enumerate(body.moves) if t.shape is Proc or t.chan not in hidden]
        kept = None if len(kept) == len(body.moves) else kept
        moves = body.moves if kept is None else [body.moves[i] for i in kept]
        return _Frame(moves, (body,), (names, kept), body.diagnostics)
    if isinstance(p, Replication):
        if depth <= 0:
            return _Frame([], (), None, (("repl-depth-truncated", None),))
        # lazy unfolding: one copy covers single-participant transitions;
        # !P itself persists in targets.  Copies are alpha-equivalent with
        # free-name labels, so a second copy (for copy-to-copy syncs) is
        # stamped only if the first has an input and an output on one
        # channel.  Else the counter skips the stamps it and its nested
        # unfolds would have drawn, so every later stamp keeps its number.
        before = counter[0]
        copy = _copy(p, depth - 1, counter)
        # each copy move keeps its agent beside !P, so a move committed
        # again on a later pass of a loop gives the same successor nodes
        moves = [_pending(t, _agent_at, (copy, i, p)) for i, t in enumerate(copy.moves)]
        diagnostics = copy.diagnostics
        ins = {t.chan for t in moves if t.shape is Abstraction}
        if any(t.shape is Concretion and t.chan in ins for t in moves):
            second = _copy(p, depth - 1, counter)
            moves += _syncs(copy, second, persist=p)
            diagnostics += second.diagnostics
        elif any(t.shape is not Proc for t in moves):
            counter[0] += counter[0] - before
        return _Frame(moves, (), None, diagnostics)
    raise TypeError(p)


REPL_DEPTH = 64  # by default a replication unfolds at most this many times per enumeration


def discrete_transitions(p: Process, depth: int = REPL_DEPTH, counter: Optional[list] = None) -> Enumeration:
    """p's moves, and the diagnostics met in walk order, each once; a cut reads ``repl_depth=D``."""
    counter = [0] if counter is None else counter
    f = _trans(p, depth, counter)
    cut = ("repl-depth-truncated", f"repl_depth={depth}")
    diagnostics = [cut if d[0] == cut[0] else d for d in dict.fromkeys(f.diagnostics)]
    return Enumeration(f, diagnostics, counter)


# ---------------------------------------------------------------------------
# Survey of a process for continuous evolution
# ---------------------------------------------------------------------------


@dataclass
class _CellInfo:
    site: Sum  # the Sum node holding the continuous branch
    prefix: Continuous
    cont: Process


@dataclass
class Survey:
    cells: list = field(default_factory=list)
    urgent: list = field(default_factory=list)  # reasons evolution is preempted
    blocked: list = field(default_factory=list)  # sums with no applicable rule


# A process's ready set is a frozenset of (name, is_output) pairs: (name,
# True) is an output (sense side), (name, False) an input (actuate side).
# A cell's ready set holds positions instead: (variable index, is_output).


def dual(ready: frozenset) -> frozenset:
    return frozenset((n, not pol) for n, pol in ready)


def describe_ready(ready: frozenset) -> str:
    return "{" + ", ".join(sorted(f"{n.display}{'!' if pol else '?'}" for n, pol in ready)) + "}"


def _survey(p: Process, sv: Survey) -> frozenset:
    """Returns the visible ready set of p, accumulating cells and checks."""
    if isinstance(p, Sum):  # its enumeration decides which branches are live
        moves = _trans(p, 0, None).moves
        sv.urgent += [(t.kind, p.tag) for t in moves if t.shape is Proc]
        for pi, cont in p.branches:
            if isinstance(pi, Continuous):  # the first cell; its ready set is the sum's
                sv.cells.append(_CellInfo(p, pi, cont))
                return frozenset((pi.vars[i], pol) for i, pol in pi.ready)
        if p.branches and not moves:
            sv.blocked.append(p.tag)
        # an input waits on the actuate side, an output on the sense side
        return frozenset((t.chan, t.shape is Concretion) for t in moves if t.shape is not Proc)
    if isinstance(p, Parallel):
        rl = _survey(p.left, sv)
        rr = _survey(p.right, sv)
        clash = dual(rl) & rr
        if clash:
            sv.urgent.append(("match", describe_ready(clash)))
        return rl | rr
    if isinstance(p, Restriction):
        return frozenset(i for i in _survey(p.body, sv) if i[0] != p.name)
    if isinstance(p, Replication):
        r = _survey(p.body, sv)
        clash = dual(r) & r
        if clash:
            sv.urgent.append(("match", describe_ready(clash)))
        return r
    raise TypeError(p)


def survey(p: Process) -> tuple[Survey, frozenset]:
    sv = Survey()
    return sv, _survey(p, sv)


# ---------------------------------------------------------------------------
# Compiled RK4 steppers, cached per ODE-system shape.  The generated source
# of the fields and boundaries is the only description of a system: state
# variables are X{i}, environment names E{j} and numeric constants K{k}.
# The source walk alone decides which a name is: a cell variable is state,
# any other name is environment, and E{j} and K{k} are numbered in walk
# order.  So the key is the vector sizes and those source strings, and
# every system of one shape shares one stepper.  A
# stepper is ``make(env, consts) -> (advance, bounds)``: ``advance`` is the
# whole fixed-step RK4 loop, which returns at the horizon or at the first
# step whose end fails a boundary; ``bounds`` evaluates the boundaries.
# ---------------------------------------------------------------------------


def _expr_src(e: Expr, names: dict, env: list, consts: list) -> str:
    if isinstance(e, Const):
        consts.append(e.value)
        return f"K{len(consts) - 1}"
    if isinstance(e, Var):
        src = names.get(e.name)
        if src is None:  # first meeting of an environment name
            src = names[e.name] = f"E{len(env)}"
            env.append(e.name)
        return src
    return OPERATORS[e.op].format(*[_expr_src(x, names, env, consts) for x in e.args])


_compiled_cache: dict = {}


def _compile_system(n: int, m: int, k: int, fields: tuple, boundaries: tuple):
    """``make(env, consts) -> (advance, bounds)`` for field and boundary
    sources over X0..X{n-1}, E0..E{m-1} and K0..K{k-1}.

    ``advance(t, y, step, horizon, eps, max_substeps, times, samples)``
    takes fixed RK4 steps of ``min(step, horizon - t)`` from state ``y`` at
    time ``t`` while ``t < horizon - eps``, appending each accepted step's
    end time to ``times`` and its state values to the flat ``samples``.  It
    returns ``(t, y, None)`` at the horizon and ``(t, y, (dt, y_new, ok))``
    at the first step whose end ``y_new`` fails a boundary, with ``ok`` the
    boundary values there.  ``bounds(*x)`` is the tuple of boundary values
    at ``x``."""
    ys = ", ".join(f"Y{i}" for i in range(n))
    xs = ", ".join(f"X{i}" for i in range(n))
    bs = ", ".join(f"b{c}" for c in range(len(boundaries)))
    lines = ["import math", "def _make(env, consts):"]
    for prefix, size, arg in (("E", m, "env"), ("K", k, "consts")):
        if size:
            lines.append("    (" + ", ".join(f"{prefix}{j}" for j in range(size)) + f",) = {arg}")
    lines += [
        "    def advance(t, y, step, horizon, eps, max_substeps, times, samples):",
        f"        ({ys},) = y",
        "        end = horizon - eps",
        "        n_taken = 0",
        "        while t < end:",
        "            dt = horizon - t",
        "            if dt > step:",
        "                dt = step",
        "            if n_taken > max_substeps:",
        '                raise StepOverflow(f"more than {max_substeps} substeps")',
    ]
    lines += [f"            X{i} = Y{i}" for i in range(n)]
    # each stage evaluates the same field sources at X, then moves X on
    for slope, move in (("A", "0.5*dt*A"), ("B", "0.5*dt*B"), ("C", "dt*C"), ("D", None)):
        lines += [f"            {slope}{i} = {f}" for i, f in enumerate(fields)]
        if move:
            lines += [f"            X{i} = Y{i} + {move}{i}" for i in range(n)]
    lines += [f"            X{i} = Y{i} + dt*(A{i} + 2.0*B{i} + 2.0*C{i} + D{i})/6.0" for i in range(n)]
    # every boundary is evaluated, so one that raises still raises
    lines += [f"            b{c} = {b}" for c, b in enumerate(boundaries)]
    lines += [
        f"            if not ({' and '.join(f'b{c}' for c in range(len(boundaries)))}):",
        f"                return t, ({ys},), (dt, ({xs},), ({bs},))",
        "            t += dt",
        "            n_taken += 1",
        "            times.append(t)",
        f"            samples.extend(({xs},))",
    ]
    lines += [f"            Y{i} = X{i}" for i in range(n)]
    lines += [
        f"        return t, ({ys},), None",
        f"    def bounds({xs}):",
        f"        return ({', '.join(boundaries)},)",
        "    return advance, bounds",
    ]
    ns: dict = {"StepOverflow": StepOverflow}
    exec(compile("\n".join(lines), "<ode-system>", "exec"), ns)
    return ns["_make"]


def _get_stepper(vars_: tuple, fields: tuple, boundaries: tuple):
    """The compiled maker for this system's shape, the environment names
    in walk order, and the constant values: call it as
    ``make(values of the environment names, consts)``."""
    names = {v: f"X{i}" for i, v in enumerate(vars_)}
    env: list = []
    consts: list = []
    fsrc = tuple(_expr_src(f, names, env, consts) for f in fields)
    bsrc = tuple(_expr_src(b, names, env, consts) for b in boundaries)
    key = (len(vars_), len(env), len(consts), fsrc, bsrc)
    make = _compiled_cache.get(key)
    if make is None:
        make = _compiled_cache[key] = _compile_system(*key)
    return make, env, tuple(consts)


# ---------------------------------------------------------------------------
# Continuous evolution
# ---------------------------------------------------------------------------


TAU_EVENT = 1e-9  # bisection stops once the crossing is bracketed this tightly (s)
MAX_SUBSTEPS = 50_000_000  # RK4 steps one evolution may take


@dataclass
class IntegratorConfig:
    step: float = 1e-3

    def __post_init__(self):
        if not 0 < self.step < math.inf:
            raise ValueError("step must be positive and finite")


@dataclass
class StopInfo:
    tag: Optional[str]
    values: dict  # Name -> float, the stopping cell's terminal state


@dataclass
class ContinuousResult:
    duration: float
    ready: frozenset
    process: Process  # the successor, pruned
    stops: list
    full_flow: Optional[fl.Flow]  # every cell variable; None without cells or duration


def continuous_step(
    p: Process,
    horizon: float,
    cfg: IntegratorConfig,
    env: Optional[dict] = None,
) -> Optional[ContinuousResult]:
    """One application of the continuous rule set, up to `horizon` seconds.

    Returns None when no continuous rule applies (caller decides whether
    that is termination or deadlock).  Raises UrgencyViolation when a
    discrete step is enabled and must preempt the passage of time.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    sv, ready = survey(p)
    if sv.urgent:
        what, detail = sv.urgent[0]
        raise UrgencyViolation(f"discrete step enabled ({what}: {detail})")
    if sv.blocked:
        return None  # a component with no applicable rule blocks evolution
    cells = sv.cells
    if not cells:
        q = prune(p)
        if not ready and is_nil(q):
            return None
        # pure waiting: an empty flow of the full horizon
        return ContinuousResult(horizon, ready, q, [], None)

    vars_ = tuple(v for c in cells for v in c.prefix.vars)
    if len(set(vars_)) != len(vars_):
        raise OpenSystem("two parallel cells guarantee the same variable")
    fields = tuple(e for c in cells for e in c.prefix.fields)
    boundaries = tuple(c.prefix.boundary for c in cells)
    make, env_names, consts = _get_stepper(vars_, fields, boundaries)
    env = env or {}
    missing = [n.display for n in env_names if n not in env]
    if missing:
        names = ", ".join(sorted(missing))
        raise OpenSystem(f"variables without a defining cell or environment value: {names}")

    y0 = []
    for c in cells:
        for e in c.prefix.init:
            v = fl.eval_expr(e, env)
            if not fl.is_real(v):
                raise UndefinedDynamics(f"initial value {e!r} does not evaluate to a real")
            y0.append(float(v))
    advance, bounds = make(tuple(float(env[n]) for n in env_names), consts)

    y = tuple(y0)
    try:
        ok0 = bounds(*y)
    except (ZeroDivisionError, ValueError) as e:
        raise UndefinedDynamics(f"boundary undefined at start: {e}") from None
    if not all(ok0):
        return _finish(p, cells, vars_, [0.0], y0, 0.0, y, ok0, ready)

    times = [0.0]
    samples = y0  # flat: one run of len(vars_) values per time
    try:
        eps = 1e-12 * max(1.0, horizon)
        t, y, crossing = advance(0.0, y, cfg.step, horizon, eps, MAX_SUBSTEPS, times, samples)
        if crossing is None:
            t_stop, y_stop, status_ok = horizon, y, tuple(True for _ in cells)
        else:
            # bisect the crossing on the interpolated segment
            dt, y_new, ok_hi = crossing
            lo, hi = 0.0, 1.0
            while (hi - lo) * dt > TAU_EVENT:
                mid = 0.5 * (lo + hi)
                ym = tuple(a + mid * (b - a) for a, b in zip(y, y_new))
                okm = bounds(*ym)
                if all(okm):
                    lo = mid
                else:
                    hi = mid
                    ok_hi = okm
            y_stop = tuple(a + hi * (b - a) for a, b in zip(y, y_new))
            t_stop = t + hi * dt
            status_ok = ok_hi
    except (ZeroDivisionError, ValueError) as e:
        raise UndefinedDynamics(f"dynamics undefined during integration: {e}") from None

    n = len(vars_)
    if times[-1] != t_stop:
        times.append(t_stop)
        samples.extend(y_stop)
    elif tuple(samples[-n:]) != y_stop:
        samples[-n:] = y_stop
    if not all(map(math.isfinite, y_stop)):  # checked where the step ends, not per RK4 step
        t_bad = times[next(i for i, v in enumerate(samples) if not math.isfinite(v)) // n]
        raise UndefinedDynamics(f"state not finite {t_bad:.6g} s into the evolution (blow-up)")

    return _finish(p, cells, vars_, times, samples, t_stop, y_stop, status_ok, ready)


def _finish(p, cells, vars_, times, samples, t_stop, y_stop, ok, ready):
    stops = []
    repl = {}
    offset = 0
    for c, ok_c in zip(cells, ok):
        k = len(c.prefix.vars)
        vals = y_stop[offset : offset + k]
        offset += k
        if ok_c:
            pfx = Continuous(tuple(map(Const, vals)), c.prefix.vars, c.prefix.fields, c.prefix.boundary, c.prefix.ready, c.prefix.binders)
            repl[id(c.site)] = Sum(((pfx, c.cont),), tag=c.site.tag)
        else:
            repl[id(c.site)] = substitute(c.cont, {b: Const(v) for b, v in zip(c.prefix.binders, vals)})
            stops.append(StopInfo(c.site.tag, dict(zip(c.prefix.vars, vals))))
    full = fl.Flow(tuple(vars_), times, samples) if t_stop > 0 else None
    return ContinuousResult(t_stop, ready, prune(p, repl), stops, full)
