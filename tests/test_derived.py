"""Derived facts of a node are values memoised on it: the shape walk and
the name walk against plain recursive oracles, and enumeration frames that
carry their own diagnostics and truncation through memo hits."""

import pytest

from hybridpi.kernel import Proc, discrete_transitions
from hybridpi.parser import parse_term
from hybridpi.syntax import (
    Const,
    Continuous,
    Guard,
    Input,
    Op,
    Output,
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
    name_slots,
    refresh,
    shape,
    substitute,
    value_names,
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


# -- the name walk against recursion -----------------------------------------


def oracle_expr_names(e):
    if isinstance(e, Var):
        return {e.name}
    return set().union(*map(oracle_expr_names, e.args)) if isinstance(e, Op) else set()


def oracle_prefix(pi):
    """pi's names in name position, the names its values read, its binders."""
    if isinstance(pi, Input):
        return {pi.chan}, set(), set(pi.binders)
    if isinstance(pi, Output):
        return {pi.chan}, set().union(*map(oracle_expr_names, pi.payload)), set()
    if isinstance(pi, Guard):
        return set(), oracle_expr_names(pi.cond), set()
    if isinstance(pi, Continuous):
        values = set().union(*map(oracle_expr_names, pi.init + pi.fields + (pi.boundary,)))
        return set(pi.vars), values, set(pi.binders)
    return set(), set(), set()


def oracle_names(p, in_slots, in_values):
    """The free names of p at the positions asked, by recursion over the
    built term: a binder hides its name in its scope only."""
    if isinstance(p, Sum):
        out = set()
        for pi, cont in p.branches:
            slots, values, binders = oracle_prefix(pi)
            out |= (slots if in_slots else set()) | (values if in_values else set())
            out |= oracle_names(cont, in_slots, in_values) - binders
        return out
    if isinstance(p, Restriction):
        return oracle_names(p.body, in_slots, in_values) - {p.name}
    return set().union(*(oracle_names(k, in_slots, in_values) for k in kids(p)))


def unbuilt_after_reading(p):
    """The deferred sums of p not built yet, sources of deferred sums
    included, after reading p's names, which reads every node's: reading
    them builds none."""
    unbuilt, todo = [], [p]
    while todo:
        q = todo.pop()
        if isinstance(q, _Deferred) and "branches" not in vars(q):
            unbuilt.append(q)
            todo.append(q.src)
        else:
            todo += kids(q)
    free_names(p), name_slots(p), value_names(p)
    assert not [q for q in unbuilt if "branches" in vars(q)]
    return len(unbuilt)


def assert_names(p):
    """free_names, name_slots and value_names of every node of p match the
    oracle, and a second read is the memoised value itself."""
    todo = [p]
    while todo:
        q = todo.pop()
        got = free_names(q), name_slots(q), value_names(q)
        assert got == tuple(oracle_names(q, *at) for at in ((True, True), (True, False), (False, True)))
        assert free_names(q) is got[0] and name_slots(q) is got[1] and value_names(q) is got[2]
        todo += kids(q)


def valued(p):
    """p with each name it reads only as a value sent to an expression over
    a fresh name, so a deferred sum trades a name for an expression's."""
    s = {n: Op("+", (Var(fresh(n.display)), Const(1.0))) for n in value_names(p) - name_slots(p)}
    return substitute(p, s)


def assert_names_of_variants(p):
    """assert_names on the variants of p and of its valued form, once each
    is read and checked to build nothing; returns the unbuilt deferred sums
    that reading left alone."""
    qs = variants(p) + variants(valued(p))
    unbuilt = sum(map(unbuilt_after_reading, qs))
    for q in qs:
        assert_names(q)
    return unbuilt


@pytest.mark.parametrize("seed", range(4))
def test_names_match_a_recursive_oracle_on_generated_terms(seed):
    terms = random_terms(seed, 30, budget=7, repl=True)
    assert sum(assert_names_of_variants(parse_term(src)) for src in terms) > 0


def test_names_match_a_recursive_oracle_on_bundled_models():
    roots = [m.entry for e in list_models() for m in load(e.id).models.values()]
    assert sum(map(assert_names_of_variants, roots)) > 0
    assert any(value_names(r) for r in roots)


def test_reading_value_names_builds_no_deferred_sum():
    p = parse_term("a(v) . [v < w] . b!<v + u> + c!<u>")
    (u,) = [n for n in free_names(p) if n.display == "u"]
    q = substitute(p, {u: Var(fresh("z"))})
    assert isinstance(q, _Deferred)
    assert {n.display for n in value_names(q)} == {"w", "z"}
    assert "branches" not in vars(q)


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
    cut = ("repl-depth-truncated", "repl_depth=1")
    assert first.diagnostics == [guard, cut] and first.truncated
    (i,) = [i for i, t in enumerate(first.frame.moves) if t.shape is Proc]
    succ = first.agent(i).body
    assert succ.right is p.right and "_trans" in vars(p.right)
    again = discrete_transitions(succ, 1)
    assert again.diagnostics == [guard, cut] and again.truncated
    assert not again.frame.moves
