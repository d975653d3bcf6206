"""Moves whose agents are built on demand, checked against the eager
enumerator they replace, and counts that pin the laziness.

The oracle is the enumerator as it was before agents became lazy: every
move's agent is built at once, and each replication unfolds into a
refreshed copy of its body.  Both must give the same moves in the same
order, draw the same unfold stamps, and build alpha-equivalent agents."""

from collections import namedtuple

import pytest

from hybridpi import kernel, simulator
from hybridpi.kernel import Abstraction, Concretion, Enumeration, Proc, discrete_transitions
from hybridpi.parser import parse_term
from hybridpi.simulator import SimConfig, simulate
from hybridpi.syntax import (
    Const,
    Parallel,
    Replication,
    Restriction,
    Sum,
    Var,
    canonical_key,
    constructs,
    free_names,
    fresh,
    refresh,
    subst_expr,
    substitute,
)
from hybridpi.zoo import list_models, load
from termgen import random_terms

Move = namedtuple("Move", "agent kind chan payload tags")


def eager_trans(p, depth, res):
    if isinstance(p, Sum):
        return [Move(t.agent, t.kind, t.chan, t.payload, t.tags) for t in kernel._sum_transitions(p, res.diagnostics)]
    if isinstance(p, Parallel):
        lefts = eager_trans(p.left, depth, res)
        rights = eager_trans(p.right, depth, res)
        out = [t._replace(agent=kernel.par_agent(t.agent, p.right, True)) for t in lefts]
        out += [t._replace(agent=kernel.par_agent(t.agent, p.left, False)) for t in rights]
        return out + eager_syncs(lefts, rights)
    if isinstance(p, Restriction):
        names = []
        while isinstance(p, Restriction):
            names.append(p.name)
            p = p.body
        out = []
        for t in eager_trans(p, depth, res):
            if isinstance(t.agent, Proc) or t.chan not in names:
                agent = t.agent
                for n in reversed(names):
                    agent = kernel.restrict_agent(n, agent)
                out.append(t._replace(agent=agent))
        return out
    if isinstance(p, Replication):
        if depth <= 0:
            res.truncated = True
            return []
        before = res.counter[0]
        base = eager_trans(unfold(p, res), depth - 1, res)
        out = [t._replace(agent=kernel.par_agent(t.agent, p, True)) for t in base]
        ins = {t.chan for t in base if isinstance(t.agent, Abstraction)}
        if any(isinstance(t.agent, Concretion) and t.chan in ins for t in base):
            out += eager_syncs(base, eager_trans(unfold(p, res), depth - 1, res), persist=p)
        elif any(not isinstance(t.agent, Proc) for t in base):
            res.counter[0] += res.counter[0] - before
        return out
    raise TypeError(p)


def eager_syncs(lefts, rights, persist=None):
    out = []
    for tl in lefts:
        for tr in rights:
            if isinstance(tl.agent, Abstraction) and isinstance(tr.agent, Concretion) and tl.chan == tr.chan:
                fi, co = tl, tr
            elif isinstance(tl.agent, Concretion) and isinstance(tr.agent, Abstraction) and tl.chan == tr.chan:
                fi, co = tr, tl
            else:
                continue
            merged = kernel.apply(fi.agent, co.agent)
            if persist is not None:
                merged = Parallel(merged, persist)
            kind = "sync"
            if "sense" in (tl.kind, tr.kind):
                kind = "sense"
            elif "actuate" in (tl.kind, tr.kind):
                kind = "actuate"
            out.append(Move(Proc(merged), kind, co.chan, co.payload, tl.tags + tr.tags))
    return out


def unfold(p, res):
    res.counter[0] += 1
    return refresh(p.body, f"#{res.counter[0]}")


# -- comparison up to the names each enumerator draws afresh ----------------


def norm_expr(e, free):
    """e as a tuple; a name is its id when free (None: every name is),
    else its display."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return e.name.id if free is None or e.name in free else e.name.display
    return (e.op,) + tuple(norm_expr(a, free) for a in e.args)


def label(t, free):
    chan = None if t.chan is None else (t.chan.id if t.chan in free else t.chan.display)
    payload = None if t.payload is None else tuple(norm_expr(e, free) for e in t.payload)
    return t.kind, chan, payload, t.tags


def tags(p):
    """Every sum tag in p, in walk order, continuations included."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Sum):
            out.append(q.tag)
            todo += [cont for _, cont in reversed(q.branches)]
        elif isinstance(q, Parallel):
            todo += (q.right, q.left)
        else:
            todo.append(q.body)
    return out


PLACEHOLDERS = tuple(fresh(f"priv{i}") for i in range(8))


def comparable(agent):
    """The agent with its binders instantiated, or its extruded names mapped,
    to shared placeholder names, as a key and the tags.  A placeholder is a
    fixed value that may also stand in channel position."""
    if isinstance(agent, Proc):
        body, head = agent.body, ()
    elif isinstance(agent, Abstraction):
        sub = {b: Var(PLACEHOLDERS[i]) for i, b in enumerate(agent.binders)}
        body, head = substitute(agent.body, sub), ("in", len(agent.binders))
    else:
        sub = {n: Var(PLACEHOLDERS[i]) for i, n in enumerate(agent.restricted)}
        body = substitute(agent.body, sub)
        head = ("out", tuple(norm_expr(subst_expr(e, sub), None) for e in agent.payload))
    return head, canonical_key(body), tags(body)


def assert_same_moves(p, depth=8):
    ctr = [0]
    lazy = discrete_transitions(p, depth, counter=ctr)
    res = Enumeration()
    eager = eager_trans(p, depth, res)
    free = free_names(p)
    assert [label(t, free) for t in lazy.transitions] == [label(t, free) for t in eager]
    assert ctr == res.counter
    assert lazy.truncated == res.truncated
    assert lazy.diagnostics == list(dict.fromkeys(res.diagnostics))  # each once, in walk order
    for tl, te in zip(lazy.transitions, eager):
        assert tl.shape is type(te.agent)
        assert comparable(tl.agent) == comparable(te.agent)


HANDWRITTEN = (
    "repl (a() . 0 || repl b())",
    "repl (c!<> || c() . repl d())",
    "repl (a!<1> || new k . (k!<a> || repl k(x) . x!<>))",
    "repl (a!<> || [u < 1] . b!<>) || a() . 0",
)


@pytest.mark.parametrize("seed", range(6))
def test_lazy_moves_match_the_eager_enumerator_on_replications(seed):
    terms = random_terms(seed, 25, budget=6, repl=True)
    assert any(Replication in constructs(parse_term(t)) for t in terms)
    for src in terms + list(HANDWRITTEN):
        assert_same_moves(refresh(parse_term(src)))


def test_lazy_moves_match_the_eager_enumerator_on_bundled_roots():
    roots = []
    for entry in list_models():
        roots += [m.entry for m in load(entry.id).models.values()]
    assert len(roots) >= 8
    for root in roots:
        p = refresh(root)
        # the root and the first few successors along policy "first", each
        # refreshed so that no memoised enumeration carries over
        for _ in range(12):
            assert_same_moves(refresh(p), 64)
            taus = [t for t in discrete_transitions(p, 64).transitions if t.shape is Proc]
            if not taus:
                break
            p = taus[0].agent.body


# -- laziness, counted ------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    seen = {"refresh": 0, "apply": 0}
    for name in seen:
        real = getattr(kernel, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            seen[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(kernel, name, counting)
    return seen


def test_enumerating_the_network_builds_no_agent(calls):
    root = refresh(load("handover-network").main.entry)
    enum = discrete_transitions(root)
    assert any(t.kind == "sync" for t in enum.transitions)
    assert calls == {"refresh": 0, "apply": 0}
    (first,) = [t for t in enum.transitions if t.kind == "sync"][:1]
    assert isinstance(first.agent, Proc)
    assert calls["refresh"] >= 1 and calls["apply"] == 1


def test_flat_parallel_applies_once_per_committed_sync(calls):
    n = 40
    p = parse_term(" || ".join(["c!<1>"] * n + ["c(x) . 0"] * n))
    res = simulate(p, SimConfig(horizon=1.0))
    assert res.status == "inaction"
    assert [ev.kind for ev in res.trace] == ["Sync"] * n
    assert calls["apply"] == n


# -- shared moves ------------------------------------------------------------


@pytest.mark.parametrize("src", [
    "a!<> || a() . 0 || a!<> || a() . 0",
    "a!<> || (a() . 0 || (a!<> || a() . 0))",
    "new a . (a!<> || c!<1> || a() . 0) || c(x) . 0 || new b . (b() . 0 || c(y) . b!<>)",
])
def test_shared_moves_keep_the_eager_order(src):
    # the parser nests a flat parallel to the left; the second term nests to
    # the right, and the third has restrictions that drop moves
    assert_same_moves(refresh(parse_term(src)))


def test_flat_parallel_enumeration_builds_each_move_once(monkeypatch):
    n = 20
    p = parse_term(" || ".join(["c!<1>"] * n + ["c(x) . 0"] * n))
    built = [0]
    real = kernel.Transition.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(kernel.Transition, "__init__", counting)
    moves = discrete_transitions(p).transitions
    assert len(moves) == 2 * n + n * n
    # the sums' moves, the syncs and one root view per move
    assert built[0] <= 3 * len(moves)


def test_moves_are_lifted_from_what_their_enumeration_saw():
    root = refresh(load("handover-network").main.entry)
    first = discrete_transitions(root, 64, counter=[0])
    # another depth replaces every memo on the term, and the factories
    # draw other stamps from another counter
    again = discrete_transitions(root, 63, counter=[500])
    assert [t.tags for t in again.transitions] != [t.tags for t in first.transitions]
    at_once = discrete_transitions(refresh(root), 64, counter=[0]).transitions
    assert [t.tags for t in first.transitions] == [t.tags for t in at_once]
    assert [comparable(t.agent) for t in first.transitions] == [comparable(t.agent) for t in at_once]


def test_simulate_builds_a_view_only_of_the_move_it_commits(monkeypatch):
    # simulate chooses among the root frame's silent moves and lifts the one
    # it commits, so no enumeration makes its list of root views
    enums = []
    real = simulator.discrete_transitions
    monkeypatch.setattr(simulator, "discrete_transitions", lambda *a, **kw: enums.append(real(*a, **kw)) or enums[-1])
    res = simulate(load("handover-network").main.entry, SimConfig(horizon=2.0))
    assert res.status == "horizon" and len(enums) > 10
    assert not any("transitions" in vars(e) for e in enums)
