import pickle

import pytest

from hybridpi.parser import parse_term, pretty
from hybridpi.syntax import (
    Input,
    Name,
    Parallel,
    Restriction,
    Sum,
    Var,
    alpha_equivalent,
    canonical_key,
    free_names,
    fresh,
    prune,
    refresh,
    struct_congruent,
    substitute,
)
from hybridpi.zoo import load
from termgen import random_terms

NIL = Sum(())


def parse_pair(a: str, b: str):
    """Parse two terms against one name table so free names coincide."""
    shared: dict = {}
    return parse_term(a, shared), parse_term(b, shared)


def displays(names):
    return sorted(n.display for n in names)


def test_names_are_atoms():
    # equal only to itself and hashed by identity: fresh is the one constructor
    a, b = fresh("a"), fresh("a")
    assert Name.__hash__ is object.__hash__ and Name.__eq__ is object.__eq__
    assert a == a and a != b and len({a, b}) == 2
    twin = Name(a.id, a.display)
    assert twin != a and twin not in {a} and repr(twin) == repr(a)
    assert pickle.loads(pickle.dumps(a)) != a  # another process's copy is another atom


def test_free_names_basic():
    assert displays(free_names(parse_term("a(v) . b!<v>"))) == ["a", "b"]
    assert displays(free_names(parse_term("new x . x!<1>"))) == []
    assert displays(free_names(parse_term("new x . (x!<1> || y(w) . w!<0>)"))) == ["y"]


def test_free_names_guard_and_cell():
    p = parse_term("[u < 1] . tau")
    assert displays(free_names(p)) == ["u"]
    cell = parse_term("{0 | w' = u & w < 5 ; ready w!}")
    assert displays(free_names(cell)) == ["u", "w"]


def test_substitution_free_name_law():
    # F(P s) is contained in (F(P) \ dom s) plus the names s introduces
    for text in random_terms(101, 60):
        p = parse_term(text)
        fn = free_names(p)
        if not fn:
            continue
        tgt = next(iter(fn))
        repl = fresh("r")
        q = substitute(p, {tgt: Var(repl)})
        assert free_names(q) <= (fn - {tgt}) | {repl}
        assert tgt not in free_names(q)


def test_identity_substitution_is_alpha_trivial():
    for text in random_terms(202, 60):
        p = parse_term(text)
        assert substitute(p, {}) is p
        s = {n: Var(n) for n in free_names(p)}
        assert alpha_equivalent(substitute(p, s), p)


def test_capture_avoidance():
    # the binder named x must be renamed when a different x flows under it
    p = parse_term("new x . (y!<1> || x!<0>)")
    other_x = fresh("x")
    (y,) = [n for n in free_names(p) if n.display == "y"]
    q = substitute(p, {y: Var(other_x)})
    assert other_x in free_names(q)
    assert not alpha_equivalent(p, q)


def _inputs(p):
    """Every input prefix in p, continuations included, in walk order."""
    out, todo = [], [p]
    while todo:
        q = todo.pop()
        if isinstance(q, Sum):
            out += [pi for pi, _ in q.branches if isinstance(pi, Input)]
            todo += [cont for _, cont in reversed(q.branches)]
        elif isinstance(q, Parallel):
            todo += (q.right, q.left)
        else:
            todo.append(q.body)
    return out


def test_binder_is_renamed_only_where_a_substituted_name_occurs_under_it():
    term = load("spec-system").models["system"].entry
    while isinstance(term, Restriction):
        term = term.body
    inputs = _inputs(term)
    (i,) = [i for i, pi in enumerate(inputs) if pi.chan.display == "channels"]
    rx = inputs[i]
    v = rx.binders[1]
    assert v.display == "v"
    # `channels` is free where the input sits but not under its binders
    q = _inputs(substitute(term, {rx.chan: Var(v)}))[i]
    assert q.chan == v and q.binders == rx.binders
    # `handover` does occur under them, so a v flowing in would be captured
    (handover,) = [n for n in free_names(term) if n.display == "handover"]
    q = _inputs(substitute(term, {handover: Var(v)}))[i]
    assert q.chan == rx.chan and q.binders[0] == rx.binders[0] and q.binders[1] != v


def test_struct_congruence_commutes_parallel_and_sum():
    assert struct_congruent(*parse_pair("a!<1> || b!<0>", "b!<0> || a!<1>"))
    assert struct_congruent(*parse_pair("tau . a!<1> + b(v)", "b(v) + tau . a!<1>"))
    assert not struct_congruent(*parse_pair("a!<1>", "a!<0>"))


def test_struct_congruence_alpha():
    assert struct_congruent(parse_term("new x . x!<1>"), parse_term("new y . y!<1>"))
    assert alpha_equivalent(*parse_pair("a(v) . b!<v>", "a(w) . b!<w>"))
    # nil is not a unit of structural congruence, only of bisimilarity
    assert not struct_congruent(*parse_pair("a!<1> || 0", "a!<1>"))


def test_struct_congruence_is_equivalence():
    terms = [parse_term(t) for t in random_terms(303, 30)]
    for p in terms:
        assert struct_congruent(p, p)
    for p in terms:
        q = Parallel(NIL, p)
        swapped = Parallel(p, NIL)
        assert struct_congruent(q, swapped) and struct_congruent(swapped, q)
        # transitivity through an alpha-varied middle term
        assert struct_congruent(q, refresh(swapped))


def test_prune_idempotent_and_identity_preserving():
    for text in random_terms(404, 40):
        p = parse_term(text)
        q = prune(p)
        assert prune(q) is q
        assert free_names(q) == free_names(p)
    lean = parse_term("a!<1> . b(v)")
    assert prune(lean) is lean
    assert struct_congruent(prune(Parallel(lean, NIL)), lean)


def test_canonical_key_stable_under_refresh():
    for text in random_terms(505, 40):
        p = parse_term(text)
        assert canonical_key(refresh(p)) == canonical_key(p)
        assert canonical_key(p, flatten=True) == canonical_key(refresh(p), flatten=True)


def test_pretty_is_reparseable_here():
    shared: dict = {}
    p = parse_term("new x . (a(v) . ([v < 1] . x!<v> + tau) || x(w))", shared)
    assert alpha_equivalent(parse_term(pretty(p), shared), p)


# Conditions are operator terms; these keys are the ones the earlier
# encoding (one class per connective) gave, byte for byte.
@pytest.mark.parametrize("src, key", [
    ("new a . a(x, y) . [x < 1 and not (y >= 2) or false] . 0",
     "(new (sum (in b[0.0]/2 (sum (guard (not (and (not (and (< b[1.0] c[1.0]) (not (not (< b[1.1] c[2.0]))))) "
     "(not false))) (sum ))))))"),
    # every connective and every sugar form: < <= > >= == != and or not true false
    ("new a . a(x, y) . [x < 1 and x <= y or not (y > 2) and (x >= 0 or x == y) and x != 3 and true or false] . 0",
     "(new (sum (in b[0.0]/2 (sum (guard (not (and (not (not (and (not (and (< b[1.0] c[1.0]) (not (< b[1.1] b[1.0])))) "
     "(not (and (and (and (not (< c[2.0] b[1.1])) (not (and (not (not (< b[1.0] c[0.0]))) (not (and (not (< b[1.0] "
     "b[1.1])) (not (< b[1.1] b[1.0]))))))) (not (and (not (< b[1.0] c[3.0])) (not (< c[3.0] b[1.0]))))) "
     "(not false)))))) (not false))) (sum ))))))"),
])
def test_canonical_key_of_every_connective_is_pinned(src, key):
    p = parse_term(src)
    assert canonical_key(p) == canonical_key(p, flatten=True) == key
    assert canonical_key(parse_term(pretty(p))) == key
