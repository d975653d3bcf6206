"""Abstract syntax for hybrid pi-calculus terms.

Processes are immutable trees built from sums of prefixed continuations,
restriction, parallel composition and replication.  Names carry globally
unique integer ids; alpha-renaming mints fresh ids from a session counter so
the Barendregt convention (free and bound names disjoint) can be maintained
mechanically.  The calculus has three binders: ``new``, input binders and a
cell's continuation binders.  One walker, ``_rewrite`` with its one scope
rule ``_scope``, rewrites under all three: ``substitute`` applies a
substitution capture-avoidingly, and ``refresh`` renames every binder,
stamps every tag and applies an optional substitution in a single pass
(replication unfolding and definition instances).  Derived facts (free
names, enumerations, structural flags) are memoised in each node's own
``__dict__``, so a node must never be mutated or copied.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union


class HpiError(Exception):
    """Base class for workbench errors."""


class SubstitutionError(HpiError):
    """Raised when a substitution would put a non-name in channel position."""


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

_counter = itertools.count(1)
_counter_lock = threading.Lock()


@dataclass(frozen=True)
class Name:
    id: int
    display: str

    def __eq__(self, other):
        return isinstance(other, Name) and self.id == other.id

    def __hash__(self):
        return hash(self.id)

    def __repr__(self):
        return f"{self.display}@{self.id}"


def fresh(display: str) -> Name:
    """Mint a name with a session-unique id."""
    with _counter_lock:
        return Name(next(_counter), display)


def fresh_like(n: Name) -> Name:
    return fresh(n.display)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# Each operator's one definition: its Python source with a {} slot per
# argument.  The compiled steppers format it (kernel._expr_src) and the
# interpreter runs it compiled once (flows.apply_op); arity is the slot count.
OPERATORS = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "/": "({} / {})",
    "sqrt": "math.sqrt({})",
    "min": "min({}, {})",
    "max": "max({}, {})",
    "neg": "(-{})",
}
ARITY = {op: src.count("{}") for op, src in OPERATORS.items()}


@dataclass(frozen=True)
class Const:
    value: Union[float, str]


@dataclass(frozen=True)
class Var:
    name: Name


@dataclass(frozen=True)
class Op:
    op: str
    args: tuple

    def __post_init__(self):
        arity = ARITY.get(self.op)
        if arity is None:
            raise ValueError(f"unknown operator {self.op!r}")
        if arity != len(self.args):
            raise ValueError(f"operator {self.op!r} expects {arity} args, got {len(self.args)}")


Expr = Union[Const, Var, Op]


def expr_names(e: Expr) -> frozenset[Name]:
    if isinstance(e, Const):
        return frozenset()
    if isinstance(e, Var):
        return frozenset((e.name,))
    out: set[Name] = set()
    for a in e.args:
        out |= expr_names(a)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Boolean expressions (kernel: false, <, and, not; the rest is sugar)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BFalse:
    pass


@dataclass(frozen=True)
class Less:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class BAnd:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True)
class BNot:
    arg: "BoolExpr"


BoolExpr = Union[BFalse, Less, BAnd, BNot]

BTRUE: BoolExpr = BNot(BFalse())


def b_true() -> BoolExpr:
    return BTRUE


def b_le(a: Expr, b: Expr) -> BoolExpr:
    return BNot(Less(b, a))


def b_ge(a: Expr, b: Expr) -> BoolExpr:
    return BNot(Less(a, b))


def b_gt(a: Expr, b: Expr) -> BoolExpr:
    return Less(b, a)


def b_eq(a: Expr, b: Expr) -> BoolExpr:
    return BAnd(BNot(Less(a, b)), BNot(Less(b, a)))


def b_ne(a: Expr, b: Expr) -> BoolExpr:
    return BNot(b_eq(a, b))


def b_or(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return BNot(BAnd(BNot(a), BNot(b)))


def bool_names(b: BoolExpr) -> frozenset[Name]:
    if isinstance(b, BFalse):
        return frozenset()
    if isinstance(b, Less):
        return expr_names(b.lhs) | expr_names(b.rhs)
    if isinstance(b, BAnd):
        return bool_names(b.lhs) | bool_names(b.rhs)
    return bool_names(b.arg)


# ---------------------------------------------------------------------------
# Prefixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tau:
    pass


@dataclass(frozen=True)
class Input:
    chan: Name
    binders: tuple[Name, ...]


@dataclass(frozen=True)
class Output:
    chan: Name
    payload: tuple  # of Expr


@dataclass(frozen=True)
class Guard:
    cond: BoolExpr


@dataclass(frozen=True)
class Continuous:
    init: tuple            # Expr per variable
    vars: tuple            # Name per variable, pairwise distinct
    fields: tuple          # Expr per variable (right-hand sides)
    boundary: BoolExpr
    ready: frozenset       # (name, is_output) pairs: sense (True), actuate (False)
    binders: tuple = ()    # continuation binders; empty means final state dropped

    def __post_init__(self):
        if not (len(self.init) == len(self.vars) == len(self.fields)):
            raise ValueError("continuous prefix needs |init| = |vars| = |fields|")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("continuous variables must be pairwise distinct")
        if self.binders and len(self.binders) != len(self.vars):
            raise ValueError("continuation binders must match variable count")
        own = set(self.vars)
        for n, _pol in self.ready:
            if n not in own:
                raise ValueError(f"ready-set entry {n.display} is not an ODE variable")


Prefix = Union[Tau, Input, Output, Guard, Continuous]


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sum:
    branches: tuple  # of (Prefix, Process)
    tag: Optional[str] = None


@dataclass(frozen=True)
class Restriction:
    name: Name
    body: "Process"


@dataclass(frozen=True)
class Parallel:
    left: "Process"
    right: "Process"


@dataclass(frozen=True)
class Replication:
    body: "Process"


Process = Union[Sum, Restriction, Parallel, Replication]

NIL = Sum(())


def is_nil(p: Process) -> bool:
    return isinstance(p, Sum) and not p.branches


def restrict(names: Sequence[Name], body: Process) -> Process:
    for n in reversed(list(names)):
        body = Restriction(n, body)
    return body


def prefixed(pi: Prefix, cont: Process, tag: Optional[str] = None) -> Sum:
    return Sum(((pi, cont),), tag=tag)


_UNSET = object()


def memo(p: Process, key: str, compute: Callable, valid: Optional[Callable] = None):
    """The derived fact ``key`` of node p: ``compute(p)`` on first use, then
    the value kept as an attribute in p's own instance dict.  Dataclass
    equality, hashing, repr and ``replace`` read only the declared fields,
    so the memo is invisible to them, and it dies with its node.  A kept
    value that ``valid`` rejects is recomputed and replaced."""
    hit = getattr(p, key, _UNSET)
    if hit is _UNSET or (valid is not None and not valid(hit)):
        hit = compute(p)
        # set past the frozen-dataclass guard; reading p.__dict__ instead
        # would materialise a dict and slow every later field access
        object.__setattr__(p, key, hit)
    return hit


def constructs(p: Process) -> frozenset:
    """The process-node and prefix classes that occur in p, continuations
    and replication bodies included."""
    return memo(p, "_constructs", _constructs)


def _constructs(p: Process) -> frozenset:
    out = set()
    todo = [p]
    while todo:
        q = todo.pop()
        out.add(type(q))
        if isinstance(q, Sum):
            for pi, cont in q.branches:
                out.add(type(pi))
                todo.append(cont)
        elif isinstance(q, Parallel):
            todo += (q.left, q.right)
        else:
            todo.append(q.body)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Free names
# ---------------------------------------------------------------------------


def prefix_free_names(pi: Prefix, cont_free: frozenset[Name]) -> frozenset[Name]:
    if isinstance(pi, Tau):
        return cont_free
    if isinstance(pi, Input):
        return (cont_free - frozenset(pi.binders)) | {pi.chan}
    if isinstance(pi, Output):
        out = cont_free | {pi.chan}
        for e in pi.payload:
            out |= expr_names(e)
        return out
    if isinstance(pi, Guard):
        return cont_free | bool_names(pi.cond)
    if isinstance(pi, Continuous):
        out = cont_free - frozenset(pi.binders)
        out |= frozenset(pi.vars)
        for e in pi.init:
            out |= expr_names(e)
        for e in pi.fields:
            out |= expr_names(e)
        out |= bool_names(pi.boundary)
        out |= {n for n, _ in pi.ready}
        return out
    raise TypeError(pi)


def free_names(p: Process) -> frozenset[Name]:
    return memo(p, "_free_names", _free_names)


def _free_names(p: Process) -> frozenset[Name]:
    if isinstance(p, Sum):
        out: frozenset[Name] = frozenset()
        for pi, cont in p.branches:
            out |= prefix_free_names(pi, free_names(cont))
        return out
    if isinstance(p, Restriction):
        return free_names(p.body) - {p.name}
    if isinstance(p, Parallel):
        return free_names(p.left) | free_names(p.right)
    if isinstance(p, Replication):
        return free_names(p.body)
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


class Substitution:
    """Finite map from names to expressions, identity elsewhere."""

    def __init__(self, mapping: dict[Name, Expr] | Iterable[tuple[Name, Expr]] = ()):
        self.mapping: dict[Name, Expr] = dict(mapping)

    def __bool__(self):
        return bool(self.mapping)

    def name_for(self, n: Name, where: str) -> Name:
        """Replacement for a name in channel/variable position; must be a name."""
        r = self.mapping.get(n)
        if r is None:
            return n
        if isinstance(r, Var):
            return r.name
        raise SubstitutionError(
            f"cannot substitute non-name expression for {n.display} in {where} position"
        )

    def free_in_range(self) -> frozenset[Name]:
        out: frozenset[Name] = frozenset()
        for e in self.mapping.values():
            out |= expr_names(e)
        return out


def subst_expr(e: Expr, s: Substitution) -> Expr:
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        r = s.mapping.get(e.name)
        return r if r is not None else e
    return Op(e.op, tuple(subst_expr(a, s) for a in e.args))


def subst_bool(b: BoolExpr, s: Substitution) -> BoolExpr:
    if isinstance(b, BFalse):
        return b
    if isinstance(b, Less):
        return Less(subst_expr(b.lhs, s), subst_expr(b.rhs, s))
    if isinstance(b, BAnd):
        return BAnd(subst_bool(b.lhs, s), subst_bool(b.rhs, s))
    return BNot(subst_bool(b.arg, s))


def rename_apart(names: tuple, avoid: frozenset):
    """Capture-avoiding renaming: `names` with each member of `avoid`
    replaced by a fresh name, drawn in order, and that renaming as a
    substitution (None when nothing clashes)."""
    ren = {n: fresh_like(n) for n in names if n in avoid}
    if not ren:
        return names, None
    return tuple(ren.get(n, n) for n in names), Substitution({k: Var(v) for k, v in ren.items()})


def _scope(binders: tuple, s: Substitution, renew: bool):
    """The one binder rule: ``binders`` as rewritten, and the substitution
    in force under them -- s without the binders, plus their renaming.
    Renewing renames every binder to a fresh name; otherwise a binder is
    renamed only where a name in s's range would be captured."""
    if renew:
        new = tuple(map(fresh_like, binders))
        inner = Substitution(s.mapping)
        inner.mapping.update(zip(binders, map(Var, new)))
        return new, inner
    inner = Substitution({k: v for k, v in s.mapping.items() if k not in binders})
    if not inner:
        return binders, inner
    new, ren = rename_apart(binders, inner.free_in_range())
    if ren:
        inner.mapping.update(ren.mapping)
    return new, inner


def _rewrite(p: Process, s: Substitution, renew: bool, suffix: Optional[str]) -> Process:
    """The one binder-aware walker: p with s applied to its free names,
    capture-avoiding.  When renewing, every binder also gets a fresh name
    and every tag the suffix.  Fresh names are drawn depth first, a
    prefix's binders before its continuation."""
    # without renewal an untouched subtree comes back as the same object,
    # keeping its memos warm across transitions
    if not renew and (not s or free_names(p).isdisjoint(s.mapping)):
        return p
    if isinstance(p, Sum):
        tag = p.tag if suffix is None else (f"{p.tag}{suffix}" if p.tag else None)
        return Sum(tuple(_rewrite_branch(pi, cont, s, renew, suffix) for pi, cont in p.branches), tag=tag)
    if isinstance(p, Restriction):
        (name,), inner = _scope((p.name,), s, renew)
        return Restriction(name, _rewrite(p.body, inner, renew, suffix))
    if isinstance(p, Parallel):
        return Parallel(_rewrite(p.left, s, renew, suffix), _rewrite(p.right, s, renew, suffix))
    if isinstance(p, Replication):
        return Replication(_rewrite(p.body, s, renew, suffix))
    raise TypeError(p)


def _rewrite_branch(pi: Prefix, cont: Process, s: Substitution, renew: bool, suffix: Optional[str]):
    """_rewrite of one sum branch, the only dispatch on prefix type."""
    inner = s
    if isinstance(pi, Input):
        chan = s.name_for(pi.chan, "channel")
        binders, inner = _scope(pi.binders, s, renew)
        pi = Input(chan, binders)
    elif isinstance(pi, Output):
        pi = Output(s.name_for(pi.chan, "channel"), tuple(subst_expr(e, s) for e in pi.payload))
    elif isinstance(pi, Guard):
        pi = Guard(subst_bool(pi.cond, s))
    elif isinstance(pi, Continuous):
        vars_ = tuple(s.name_for(v, "continuous variable") for v in pi.vars)
        init = tuple(subst_expr(e, s) for e in pi.init)
        fields = tuple(subst_expr(e, s) for e in pi.fields)
        boundary = subst_bool(pi.boundary, s)
        rdy = frozenset((s.name_for(n, "ready set"), pol) for n, pol in pi.ready)
        binders, inner = _scope(pi.binders, s, renew)
        pi = Continuous(init, vars_, fields, boundary, rdy, binders)
    elif not isinstance(pi, Tau):
        raise TypeError(pi)
    return pi, _rewrite(cont, inner, renew, suffix)


def substitute(p: Process, s: Substitution) -> Process:
    """p with s applied to its free names; a bound name that a name in s's
    range would be captured by is renamed to a fresh one."""
    return _rewrite(p, s, False, None)


def refresh(p: Process, suffix: Optional[str] = None, s: Optional[Substitution] = None) -> Process:
    """One pass that renames every binder to a fresh id (restoring
    Barendregt), stamps every sum tag with ``suffix``, nested replication
    bodies included, and applies ``s`` to the free names.  The stamp keeps
    the events of one unfolded copy or inlined instance apart (a copy
    spawned inside copy #k carries #k#m); a definition instance is
    ``refresh(body, "@k", params -> args)``."""
    return _rewrite(p, s or Substitution(), True, suffix)


# ---------------------------------------------------------------------------
# Canonical forms: alpha equivalence and structural congruence
# ---------------------------------------------------------------------------


def _canon_expr(e: Expr, env: dict[Name, str]) -> str:
    if isinstance(e, Const):
        return f"c[{e.value!r}]"
    if isinstance(e, Var):
        return env.get(e.name, f"f[{e.name.id}]")
    return f"({e.op} {' '.join(_canon_expr(a, env) for a in e.args)})"


def _canon_bool(b: BoolExpr, env: dict[Name, str]) -> str:
    if isinstance(b, BFalse):
        return "false"
    if isinstance(b, Less):
        return f"(< {_canon_expr(b.lhs, env)} {_canon_expr(b.rhs, env)})"
    if isinstance(b, BAnd):
        return f"(and {_canon_bool(b.lhs, env)} {_canon_bool(b.rhs, env)})"
    return f"(not {_canon_bool(b.arg, env)})"


def _bind(env: dict[Name, str], depth: int, names: Sequence[Name]) -> dict[Name, str]:
    env2 = dict(env)
    for i, n in enumerate(names):
        env2[n] = f"b[{depth}.{i}]"
    return env2


def _canon(p: Process, env: dict[Name, str], depth: int, flatten: bool) -> str:
    if isinstance(p, Sum):
        parts = [_canon_branch(pi, cont, env, depth, flatten) for pi, cont in p.branches]
        if flatten:
            parts.sort()
        return "(sum " + " ".join(parts) + ")"
    if isinstance(p, Restriction):
        env2 = _bind(env, depth, (p.name,))
        return f"(new {_canon(p.body, env2, depth + 1, flatten)})"
    if isinstance(p, Parallel):
        if flatten:
            parts = []
            stack = [p]
            while stack:
                q = stack.pop()
                if isinstance(q, Parallel):
                    stack.append(q.left)
                    stack.append(q.right)
                else:
                    parts.append(_canon(q, env, depth, flatten))
            parts.sort()
            return "(par " + " ".join(parts) + ")"
        return f"(par {_canon(p.left, env, depth, flatten)} {_canon(p.right, env, depth, flatten)})"
    if isinstance(p, Replication):
        return f"(repl {_canon(p.body, env, depth, flatten)})"
    raise TypeError(p)


def _canon_branch(pi: Prefix, cont: Process, env: dict[Name, str], depth: int, flatten: bool) -> str:
    if isinstance(pi, Tau):
        return f"(tau {_canon(cont, env, depth, flatten)})"
    if isinstance(pi, Input):
        ch = env.get(pi.chan, f"f[{pi.chan.id}]")
        env2 = _bind(env, depth, pi.binders)
        return f"(in {ch}/{len(pi.binders)} {_canon(cont, env2, depth + 1, flatten)})"
    if isinstance(pi, Output):
        ch = env.get(pi.chan, f"f[{pi.chan.id}]")
        args = " ".join(_canon_expr(e, env) for e in pi.payload)
        return f"(out {ch} [{args}] {_canon(cont, env, depth, flatten)})"
    if isinstance(pi, Guard):
        return f"(guard {_canon_bool(pi.cond, env)} {_canon(cont, env, depth, flatten)})"
    if isinstance(pi, Continuous):
        vars_ = " ".join(env.get(v, f"f[{v.id}]") for v in pi.vars)
        init = " ".join(_canon_expr(e, env) for e in pi.init)
        fields = " ".join(_canon_expr(e, env) for e in pi.fields)
        rdy = sorted(
            f"{env.get(n, f'f[{n.id}]')}{'!' if pol else '?'}" for n, pol in pi.ready
        )
        env2 = _bind(env, depth, pi.binders)
        return (
            f"(ode [{vars_}] [{init}] [{fields}] {_canon_bool(pi.boundary, env)} "
            f"{{{','.join(rdy)}}}/{len(pi.binders)} {_canon(cont, env2, depth + 1, flatten)})"
        )
    raise TypeError(pi)


def canonical_key(p: Process, flatten: bool = False) -> str:
    return _canon(p, {}, 0, flatten)


def alpha_equivalent(p: Process, q: Process) -> bool:
    return canonical_key(p, flatten=False) == canonical_key(q, flatten=False)


def struct_congruent(p: Process, q: Process) -> bool:
    """Structural congruence: alpha conversion plus commutativity and
    associativity of parallel and sum (and nothing more)."""
    return canonical_key(p, flatten=True) == canonical_key(q, flatten=True)


# ---------------------------------------------------------------------------
# Simulator-side pruning (sound up to strong bisimilarity: drops inert 0s)
# ---------------------------------------------------------------------------


def prune(p: Process) -> Process:
    # returns p itself when nothing changes so the memos on it stay warm
    if isinstance(p, Parallel):
        l = prune(p.left)
        r = prune(p.right)
        if is_nil(l):
            return r
        if is_nil(r):
            return l
        if l is p.left and r is p.right:
            return p
        return Parallel(l, r)
    if isinstance(p, Restriction):
        b = prune(p.body)
        if is_nil(b):
            return NIL
        if p.name not in free_names(b):
            return b
        if b is p.body:
            return p
        return Restriction(p.name, b)
    if isinstance(p, Replication):
        b = prune(p.body)
        if is_nil(b):
            return NIL
        if b is p.body:
            return p
        return Replication(b)
    return p
