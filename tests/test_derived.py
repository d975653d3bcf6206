"""Derived facts of a node are values memoised on it: the shape walk against
a plain recursive oracle, and enumeration frames that carry their own
diagnostics and truncation through memo hits."""

import pytest

from hybridpi.kernel import Proc, discrete_transitions
from hybridpi.parser import parse_term
from hybridpi.syntax import (
    Parallel,
    Replication,
    Restriction,
    Sum,
    Var,
    _Deferred,
    constructs,
    depth,
    free_names,
    fresh,
    refresh,
    shape,
    substitute,
)
from hybridpi.zoo import list_models, load
from termgen import random_terms

# -- the shape walk against recursion ----------------------------------------


def kids(p):
    """p's children; a deferred sum is built, so the oracle reads what the
    shape walk reads through its source."""
    if isinstance(p, Sum):
        return [cont for _, cont in p.branches]
    return [p.left, p.right] if isinstance(p, Parallel) else [p.body]


def oracle_classes(p):
    own = {Sum, *(type(pi) for pi, _ in p.branches)} if isinstance(p, Sum) else {type(p)}
    return frozenset(own.union(*map(oracle_classes, kids(p))))


def oracle_depth(p):
    return 1 + max(map(oracle_depth, kids(p)), default=0)


def oracle_unguarded(p):
    if isinstance(p, Replication):
        return True
    if isinstance(p, Parallel):
        return oracle_unguarded(p.left) or oracle_unguarded(p.right)
    return isinstance(p, Restriction) and oracle_unguarded(p.body)


def assert_shapes(p):
    """shape, constructs and depth of every node of p match the oracle; each
    node's shape is read before the oracle builds it, and reading it builds
    no deferred sum."""
    todo, deferred = [p], 0
    while todo:
        q = todo.pop()
        unbuilt = isinstance(q, _Deferred) and "branches" not in vars(q)
        deferred += unbuilt
        got = shape(q)
        assert not unbuilt or "branches" not in vars(q)
        assert got == (oracle_classes(q), oracle_depth(q), oracle_unguarded(q))
        assert constructs(q) is constructs(q) is got[0] and depth(q) == got[1]
        todo += kids(q)
    return deferred


def variants(p):
    """p, its refresh and a renaming of its free names (both defer their
    sums), and a refresh of that renaming (deferrals over deferrals)."""
    renamed = substitute(p, {n: Var(fresh(n.display)) for n in free_names(p)})
    return [p, refresh(p), renamed, refresh(renamed)]


@pytest.mark.parametrize("seed", range(4))
def test_shape_matches_a_recursive_oracle_on_generated_terms(seed):
    deferred = 0
    for src in random_terms(seed, 30, budget=7, repl=True):
        for q in variants(parse_term(src)):
            deferred += assert_shapes(q)
    assert deferred > 0


def test_shape_matches_a_recursive_oracle_on_bundled_models():
    roots = [m.entry for e in list_models() for m in load(e.id).models.values()]
    for root in roots:
        for q in variants(root):
            assert_shapes(q)
    assert any(oracle_unguarded(r) for r in roots) and not all(oracle_unguarded(r) for r in roots)


# -- frames carry their diagnostics ------------------------------------------


def test_repeated_enumerations_list_each_diagnostic_once():
    p = parse_term("[u < 1] . a!<> + [u < 2] . b!<>")
    first, second = discrete_transitions(p).diagnostics, discrete_transitions(p).diagnostics
    assert first == second == [("undefined-guard", p.tag)]
    # one node on both sides of a parallel: its diagnostic is merged once
    q = parse_term("[u < 1] . a!<>")
    assert discrete_transitions(Parallel(q, q)).diagnostics == [("undefined-guard", q.tag)]


def test_diagnostics_and_truncation_survive_memo_hits():
    # depth 1 cuts the copy's own replication; the committed tau leaves the
    # right side untouched, so its successor reads that side's frame from
    # the memo
    p = refresh(parse_term("tau . 0 || ([u < 1] . a!<> || repl repl b!<>)"))
    first = discrete_transitions(p, 1)
    guard = ("undefined-guard", p.right.left.tag)
    assert first.diagnostics == [guard] and first.truncated
    (i,) = [i for i, t in enumerate(first.frame.moves) if t.shape is Proc]
    succ = first.agent(i).body
    assert succ.right is p.right and "_trans" in vars(p.right)
    again = discrete_transitions(succ, 1)
    assert again.diagnostics == [guard] and again.truncated
    assert not again.frame.moves
