"""Abstract syntax for hybrid pi-calculus terms.

Processes are trees built from sums of prefixed continuations,
restriction, parallel composition and replication.  Nothing mutates a
node once it is built (tests/test_immutable.py checks the source for
writes); the nodes are plain dataclasses, not frozen ones, because a
frozen node pays a guarded ``object.__setattr__`` per field each time it
is built.  Names are atoms with globally unique integer ids;
alpha-renaming mints fresh ids from a session counter so the Barendregt
convention (free and bound names disjoint) can be maintained mechanically.  Conditions (guards
and cell boundaries) are expressions over the connectives false, <, and,
not; the other comparisons and ``or`` are sugar over them.

The calculus has three binders: ``new``, input binders and a cell's
continuation binders.  ``slots`` alone states where a prefix holds names
(name positions, values, binders); the walkers read it.  A substitution is
a plain dict from names to expressions.  One walker, ``_rewrite`` with its
one scope rule ``_scope``, rewrites under all three binders: ``substitute``
applies a substitution capture-avoidingly, and ``refresh`` renames every
binder, stamps every tag and applies an optional substitution in a single
pass (replication unfolding and definition instances).  Both defer the
sums they reach, as explicit substitutions do, under one rule: a non-empty
sum comes back deferred, to build its branches when first read, unless
building it could raise (a name slot sent to a non-name, or slots renamed
non-injectively or onto another slot).  So a received value, a passed
channel or a renewed binder costs nothing in branches a run never takes,
while a sum that would fail fails at the call.  Fresh names are drawn as
sums are built, so their order follows a run's reads, which only ``repr``
(name ids) shows.  One walk, ``shape``, gives a node's constructs, depth
and unguarded replication; the parser refuses depths past ``MAX_DEPTH``.
One walk, ``_names``, gives a node's free names by position: those in
name positions (``name_slots``), those its expressions read
(``value_names``), or both (``free_names``).  Both walks read a deferred
sum through its source, so no derived fact builds one.

Derived facts (free names, shape, enumerations, a deferred sum's branches,
prune's fixed points) are values memoised on each node itself, so a node
must never be mutated or copied.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union


class HpiError(Exception):
    """Base class for workbench errors."""


class SubstitutionError(HpiError):
    """Raised when a substitution would put a non-name in channel position."""


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

_counter = itertools.count(1)
_counter_lock = threading.Lock()


@dataclass(eq=False)
class Name:
    """An atom: equal only to itself and hashed by identity.  ``fresh`` is
    the only constructor, so one id is one object; the id orders names and
    keys canonical forms.  A Name rebuilt from another's id and display, or
    one unpickled in another process, is a different atom."""

    id: int
    display: str

    def __repr__(self):
        return f"{self.display}@{self.id}"


def fresh(display: str) -> Name:
    """Mint a name with a session-unique id."""
    with _counter_lock:
        return Name(next(_counter), display)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

# Each operator's one definition: its Python source with a {} slot per
# argument.  The compiled steppers format it (kernel._expr_src) and the
# interpreter runs it compiled once (flows.apply_op); arity is the slot count.
# ``and`` is ``&``, not Python's ``and``: both sides are always evaluated.
OPERATORS = {
    "+": "({} + {})",
    "-": "({} - {})",
    "*": "({} * {})",
    "/": "({} / {})",
    "sqrt": "math.sqrt({})",
    "min": "min({}, {})",
    "max": "max({}, {})",
    "neg": "(-{})",
    "<": "({} < {})",
    "and": "({} & {})",
    "not": "(not {})",
    "false": "False",
}
ARITY = {op: src.count("{}") for op, src in OPERATORS.items()}
CONNECTIVES = frozenset({"<", "and", "not", "false"})  # the operators that build conditions


@dataclass(unsafe_hash=True)
class Const:
    value: float


@dataclass(unsafe_hash=True)
class Var:
    name: Name


@dataclass(init=False, unsafe_hash=True)
class Op:
    op: str
    args: tuple

    def __init__(self, op: str, args: tuple):
        arity = ARITY.get(op)
        if arity is None:
            raise ValueError(f"unknown operator {op!r}")
        if arity != len(args):
            raise ValueError(f"operator {op!r} expects {arity} args, got {len(args)}")
        self.op = op
        self.args = args


Expr = Union[Const, Var, Op]


def expr_names(e: Expr) -> frozenset[Name]:
    out: set[Name] = set()
    todo = [e]
    while todo:
        e = todo.pop()
        if isinstance(e, Op):
            todo += e.args
        elif isinstance(e, Var):
            out.add(e.name)
    return frozenset(out)


# Condition sugar, expanded into the kernel connectives.  None may become an
# operator: a native a <= b is False on NaN, its expansion not (b < a) True.

TRUE = Op("not", (Op("false", ()),))


def b_le(a: Expr, b: Expr) -> Op:
    return Op("not", (Op("<", (b, a)),))


def b_ge(a: Expr, b: Expr) -> Op:
    return Op("not", (Op("<", (a, b)),))


def b_gt(a: Expr, b: Expr) -> Op:
    return Op("<", (b, a))


def b_eq(a: Expr, b: Expr) -> Op:
    return Op("and", (b_ge(a, b), b_le(a, b)))


def b_ne(a: Expr, b: Expr) -> Op:
    return Op("not", (b_eq(a, b),))


def b_or(a: Expr, b: Expr) -> Op:
    return Op("not", (Op("and", (Op("not", (a,)), Op("not", (b,)))),))


# ---------------------------------------------------------------------------
# Prefixes
# ---------------------------------------------------------------------------


@dataclass(unsafe_hash=True)
class Tau:
    pass


@dataclass(unsafe_hash=True)
class Input:
    chan: Name
    binders: tuple[Name, ...]
    position = "channel"  # how a SubstitutionError words the name slot


@dataclass(unsafe_hash=True)
class Output:
    chan: Name
    payload: tuple  # of Expr
    position = "channel"


@dataclass(unsafe_hash=True)
class Guard:
    cond: Expr


@dataclass(unsafe_hash=True)
class Continuous:
    init: tuple            # Expr per variable
    vars: tuple            # Name per variable, pairwise distinct
    fields: tuple          # Expr per variable (right-hand sides)
    boundary: Expr
    ready: frozenset       # (variable index, is_output) pairs: sense (True), actuate (False)
    binders: tuple = ()    # continuation binders; empty means final state dropped
    position = "continuous variable"

    def __post_init__(self):
        if not (len(self.init) == len(self.vars) == len(self.fields)):
            raise ValueError("continuous prefix needs |init| = |vars| = |fields|")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("continuous variables must be pairwise distinct")
        if self.binders and len(self.binders) != len(self.vars):
            raise ValueError("continuation binders must match variable count")
        for i, _pol in self.ready:
            if i not in range(len(self.vars)):
                raise ValueError(f"ready-set entry {i!r} is not the index of an ODE variable")


Prefix = Union[Tau, Input, Output, Guard, Continuous]


def slots(pi: Prefix) -> tuple:
    """Where pi holds names, the one statement of it that the name walk and
    the rewrite walker read: its names in name position, its value
    expressions and its binders.  ``_remake`` puts them back."""
    if isinstance(pi, Output):
        return (pi.chan,), pi.payload, ()
    if isinstance(pi, Input):
        return (pi.chan,), (), pi.binders
    if isinstance(pi, Guard):
        return (), (pi.cond,), ()
    if isinstance(pi, Continuous):
        return pi.vars, pi.init + pi.fields + (pi.boundary,), pi.binders
    return (), (), ()  # Tau


def _remake(pi: Prefix, names: tuple, values: tuple, binders: tuple) -> Prefix:
    """pi with the slots that ``slots`` reads replaced, in its order."""
    if isinstance(pi, Output):
        return Output(names[0], values)
    if isinstance(pi, Input):
        return Input(names[0], binders)
    if isinstance(pi, Guard):
        return Guard(values[0])
    if isinstance(pi, Continuous):
        k = len(names)  # values are init, fields, then the boundary
        return Continuous(values[:k], names, values[k:-1], values[-1], pi.ready, binders)
    return pi


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class Sum:
    branches: tuple  # of (Prefix, Process)
    tag: Optional[str] = None

    # written out as dataclass would generate them, except that the other
    # side may be a deferred sum, a Sum of another class (see _Deferred)
    def __eq__(self, other):
        if not isinstance(other, Sum):
            return NotImplemented
        return (self.branches, self.tag) == (other.branches, other.tag)

    def __hash__(self):
        return hash((self.branches, self.tag))


@dataclass(unsafe_hash=True)
class Restriction:
    name: Name
    body: "Process"


@dataclass(unsafe_hash=True)
class Parallel:
    left: "Process"
    right: "Process"


@dataclass(unsafe_hash=True)
class Replication:
    body: "Process"


Process = Union[Sum, Restriction, Parallel, Replication]

NIL = Sum(())


def is_nil(p: Process) -> bool:
    # a deferred sum is never empty: a rewrite returns an empty sum itself
    return type(p) is Sum and not p.branches


def restrict(names: Sequence[Name], body: Process) -> Process:
    for n in reversed(list(names)):
        body = Restriction(n, body)
    return body


def prefixed(pi: Prefix, cont: Process, tag: Optional[str] = None) -> Sum:
    return Sum(((pi, cont),), tag=tag)


def memo(p: Process, key: str, value):
    """Keep ``value`` as the derived fact ``key`` of node p and return it:
    the one write to a node after its __init__ (tests/test_immutable.py).
    It is an attribute in p's own instance dict, set as one (reading
    ``p.__dict__`` would materialise a dict and slow every later field
    access), so a hit is one read, ``getattr(p, key, None)``, by the
    caller.  Dataclass equality, hashing, repr and ``replace`` read only
    the declared fields, so the memo is invisible to them, and it dies
    with its node."""
    setattr(p, key, value)
    return value


def shape(p: Process) -> tuple:
    """p's constructs (the process-node and prefix classes in it, bodies
    and continuations included), the levels it nests (root 1), and whether
    a replication is reached without passing a prefix, so that enumerating
    p unfolds it.  One walk with an explicit stack (it is the parse-time
    depth guard); a deferred sum counts as its source, unbuilt, since a
    substitution changes no node's class and no nesting."""
    hit = getattr(p, "_shape", None)
    return memo(p, "_shape", _shape(p)) if hit is None else hit


def _shape(p: Process) -> tuple:
    classes, deepest, unguarded = set(), 0, False
    todo = [(p, 1, False)]
    while todo:
        q, d, guarded = todo.pop()
        while isinstance(q, _Deferred):
            q = q.src
        classes.add(type(q))
        deepest = max(deepest, d)
        if isinstance(q, Sum):
            for pi, cont in q.branches:
                classes.add(type(pi))
                todo.append((cont, d + 1, True))
        elif isinstance(q, Parallel):
            todo += ((q.left, d + 1, guarded), (q.right, d + 1, guarded))
        else:
            unguarded = unguarded or (isinstance(q, Replication) and not guarded)
            todo.append((q.body, d + 1, guarded))
    return frozenset(classes), deepest, unguarded


def constructs(p: Process) -> frozenset:
    """The process-node and prefix classes that occur in p (see shape)."""
    return shape(p)[0]


MAX_DEPTH = 256  # levels a parsed process may nest; _rewrite takes 3 frames a level


def depth(p: Process) -> int:
    """The levels p nests, root 1 (see shape)."""
    return shape(p)[1]


# ---------------------------------------------------------------------------
# Free names
# ---------------------------------------------------------------------------


def free_names(p: Process) -> frozenset[Name]:
    """The free names of p, in name positions and values alike."""
    hit = getattr(p, "_free_names", None)
    return memo(p, "_free_names", _names(p, free_names, True, True)) if hit is None else hit


def name_slots(p: Process) -> frozenset[Name]:
    """The free names of p in name positions: channels and cell variables.
    A substitution that maps none of them puts values only where values go,
    so applying it cannot fail."""
    hit = getattr(p, "_name_slots", None)
    return memo(p, "_name_slots", _names(p, name_slots, True, False)) if hit is None else hit


def value_names(p: Process) -> frozenset[Name]:
    """The free names of p that a field, boundary, guard, initial value or
    payload reads as a value: the names an environment can give a value."""
    hit = getattr(p, "_value_names", None)
    return memo(p, "_value_names", _names(p, value_names, False, True)) if hit is None else hit


def _names(p: Process, reader, in_slots: bool, in_values: bool) -> frozenset[Name]:
    """The one walk of a node's free names: those in name positions, those
    its expressions read, or both, as told; ``reader`` is the memoised
    reader of the same positions, called on the children."""
    if isinstance(p, _Deferred):
        # read through the source, unbuilt and capture-avoiding: each name
        # the substitution maps is traded for the names of its value
        src = reader(p.src)
        hit = src.intersection(p.sub)
        return (src - hit).union(*[expr_names(p.sub[n]) for n in hit]) if hit else src
    if isinstance(p, Sum):
        out: frozenset[Name] = frozenset()
        for pi, cont in p.branches:
            names, values, binders = slots(pi)
            out |= reader(cont).difference(binders).union(names if in_slots else (),
                                                          *map(expr_names, values if in_values else ()))
        return out
    if isinstance(p, Restriction):
        return reader(p.body) - {p.name}
    if isinstance(p, Parallel):
        return reader(p.left) | reader(p.right)
    if isinstance(p, Replication):
        return reader(p.body)
    raise TypeError(p)


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def name_for(s: dict, n: Name, where: str) -> Name:
    """What substitution s puts in n's name position: a name, never another
    expression."""
    r = s.get(n)
    if r is None:
        return n
    if isinstance(r, Var):
        return r.name
    raise SubstitutionError(f"cannot substitute non-name expression for {n.display} in {where} position")


def subst_expr(e: Expr, s: dict) -> Expr:
    if isinstance(e, Op):
        return Op(e.op, tuple([subst_expr(a, s) for a in e.args]))
    if isinstance(e, Var):
        return s.get(e.name, e)
    return e


def rename_apart(names: tuple, avoid: frozenset):
    """Capture-avoiding renaming: `names` with each member of `avoid`
    replaced by a fresh name, drawn in order, and that renaming as a
    substitution (empty when nothing clashes)."""
    ren = {n: fresh(n.display) for n in names if n in avoid}
    if not ren:
        return names, ren
    return tuple(ren.get(n, n) for n in names), {k: Var(v) for k, v in ren.items()}


def _scope(binders: tuple, body: Process, s: dict, renew: bool):
    """The one binder rule: ``binders`` as rewritten, and the substitution
    in force under them in ``body`` -- s without the binders, plus their
    renaming.  Renewing renames every binder to a fresh name; otherwise a
    binder is renamed only where a name in the range of an entry of s whose
    key is free in body would be captured."""
    if renew:
        new = tuple(fresh(b.display) for b in binders)
        inner = dict(s)
        inner.update(zip(binders, map(Var, new)))
        return new, inner
    live = free_names(body)
    inner = {k: v for k, v in s.items() if k in live and k not in binders}
    if not inner:
        return binders, inner
    new, ren = rename_apart(binders, frozenset().union(*map(expr_names, inner.values())))
    inner.update(ren)
    return new, inner


def _rewrite(p: Process, s: dict, renew: bool, suffix: Optional[str]) -> Process:
    """The one binder-aware walker: p with s applied to its free names,
    capture-avoiding.  When renewing, every binder also gets a fresh name
    and every tag the suffix.  A non-empty sum is deferred (see _Deferred)
    unless building it could raise, so errors raise at the call.  Fresh
    names are drawn depth first, a prefix's binders before its
    continuation, as each sum is built."""
    # without renewal an untouched subtree comes back as the same object,
    # keeping its memos warm across transitions
    if not renew and (not s or free_names(p).isdisjoint(s)):
        return p
    if isinstance(p, Sum):
        tag = p.tag if suffix is None else (f"{p.tag}{suffix}" if p.tag else None)
        # building raises where s sends a slot to a non-name, two to one, or one onto another
        slots_ = name_slots(p)
        to = [s[n] for n in slots_ if n in s]
        if not is_nil(p) and (not to or len({v.name for v in to if isinstance(v, Var)} - slots_) == len(to)):
            return _Deferred(p, s, renew, suffix, tag)
        return Sum(tuple(_rewrite_branch(pi, cont, s, renew, suffix) for pi, cont in p.branches), tag=tag)
    if isinstance(p, Restriction):
        (name,), inner = _scope((p.name,), p.body, s, renew)
        return Restriction(name, _rewrite(p.body, inner, renew, suffix))
    if isinstance(p, Parallel):
        return Parallel(_rewrite(p.left, s, renew, suffix), _rewrite(p.right, s, renew, suffix))
    if isinstance(p, Replication):
        return Replication(_rewrite(p.body, s, renew, suffix))
    raise TypeError(p)


def _rewrite_branch(pi: Prefix, cont: Process, s: dict, renew: bool, suffix: Optional[str]):
    """_rewrite of one sum branch: pi's names, its values, its binders, then
    the continuation under them."""
    names, values, binders = slots(pi)
    if names:
        names = tuple([name_for(s, n, pi.position) for n in names])
    if values:
        values = tuple([subst_expr(e, s) for e in values])
    inner = s
    if binders:
        binders, inner = _scope(binders, cont, s, renew)
    return _remake(pi, names, values, binders), _rewrite(cont, inner, renew, suffix)


class _Built:
    """A deferred sum's branches: built on the first read and kept by memo
    as a plain instance attribute, which every later read finds first."""

    def __get__(self, p, cls=None):
        return memo(p, "branches", _build(p))


class _Deferred(Sum):
    """``_rewrite(src, s, renew, suffix)`` for a sum src that building cannot
    fail on: its tag is stamped at once, its branches are rewritten from
    src's when first read (see _Built).  Nothing mutates s once a
    rewrite has it: ``substitute`` and ``refresh`` take a copy, and
    ``_scope`` completes each substitution it makes before returning it.
    Its free names by position and its shape come from src without
    building it, and it compares, hashes and prints as the Sum it stands
    for."""

    def __init__(self, src: Sum, s: dict, renew: bool, suffix: Optional[str], tag: Optional[str]):
        self.tag, self.src, self.sub, self.renew, self.suffix = tag, src, s, renew, suffix

    branches = _Built()

    def __repr__(self):
        return f"Sum(branches={self.branches!r}, tag={self.tag!r})"


def _build(p: _Deferred) -> tuple:
    return tuple(_rewrite_branch(pi, cont, p.sub, p.renew, p.suffix) for pi, cont in p.src.branches)


def substitute(p: Process, s: dict) -> Process:
    """p with s applied to its free names; a bound name that a name in s's
    range would be captured by is renamed to a fresh one.  Sums that
    building cannot fail on come back deferred (see _rewrite)."""
    return _rewrite(p, dict(s), False, None)


def refresh(p: Process, suffix: Optional[str] = None, s: Optional[dict] = None) -> Process:
    """One pass that renames every binder to a fresh id (restoring
    Barendregt), stamps every sum tag with ``suffix``, nested replication
    bodies included, and applies ``s`` to the free names.  The stamp keeps
    the events of one unfolded copy or inlined instance apart (a copy
    spawned inside copy #k carries #k#m); a definition instance is
    ``refresh(body, "@k", params -> args)``; it defers sums as substitute does."""
    return _rewrite(p, dict(s) if s else {}, True, suffix)


# ---------------------------------------------------------------------------
# Canonical forms: alpha equivalence and structural congruence
# ---------------------------------------------------------------------------


def _canon_expr(e: Expr, env: dict[Name, str]) -> str:
    if isinstance(e, Var):
        return env.get(e.name) or f"f[{e.name.id}]"
    if isinstance(e, Const):
        return f"c[{e.value!r}]"
    if not e.args:
        return e.op
    return f"({e.op} {' '.join(map(_canon_expr, e.args, itertools.repeat(env)))})"


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
        return f"(guard {_canon_expr(pi.cond, env)} {_canon(cont, env, depth, flatten)})"
    if isinstance(pi, Continuous):
        vars_ = " ".join(env.get(v, f"f[{v.id}]") for v in pi.vars)
        init = " ".join(_canon_expr(e, env) for e in pi.init)
        fields = " ".join(_canon_expr(e, env) for e in pi.fields)
        rdy = sorted(f"{i}{'!' if pol else '?'}" for i, pol in pi.ready)
        env2 = _bind(env, depth, pi.binders)
        return (
            f"(ode [{vars_}] [{init}] [{fields}] {_canon_expr(pi.boundary, env)} "
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


def prune(p: Process, repl: Optional[dict] = None) -> Process:
    """p without inert 0s; p itself when nothing changes, so its memos stay
    warm.  ``repl`` maps ids of nodes of p to replacements (a continuous
    step's cells), put in and pruned in the same spine walk.  What prune
    returns is its own fixed point, so it is marked and, in a walk without
    replacements, comes back at once."""
    if repl and id(p) in repl:
        p, repl = repl[id(p)], None
    if isinstance(p, Sum) or (not repl and getattr(p, "_pruned", False)):
        return p
    if isinstance(p, Parallel):
        l = prune(p.left, repl)
        r = prune(p.right, repl)
        if is_nil(l):
            return r
        if is_nil(r):
            return l
        q = p if l is p.left and r is p.right else Parallel(l, r)
    else:
        b = prune(p.body, repl)
        if is_nil(b):
            return NIL
        if isinstance(p, Replication):
            q = p if b is p.body else Replication(b)
        elif p.name not in free_names(b):
            return b
        else:
            q = p if b is p.body else Restriction(p.name, b)
    memo(q, "_pruned", True)
    return q
