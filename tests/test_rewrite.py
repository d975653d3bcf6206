"""The binder-aware rewrite behind substitute, refresh and definition
instances, on what discrete generated terms do not reach: cell binders,
cell variables and ready names, and substitutions that must fail."""

import pytest

from hybridpi.parser import ParseError, parse, parse_term
from hybridpi.syntax import (
    Const,
    Op,
    Parallel,
    Substitution,
    SubstitutionError,
    Sum,
    Var,
    canonical_key,
    free_names,
    refresh,
    substitute,
)
from termgen import random_terms

CELL = "{0, 1 | x' = u, y' = x & x < 5 ; ready x!, y?}(a, b) . c!<a + b>"


def by_display(p):
    return {n.display: n for n in free_names(p)}


def tags(p):
    """Every sum tag of p, depth first."""
    if isinstance(p, Sum):
        return [p.tag] + [t for _, cont in p.branches for t in tags(cont)]
    if isinstance(p, Parallel):
        return tags(p.left) + tags(p.right)
    return tags(p.body)


def test_refresh_renews_cell_binders_and_stamps_tags():
    p = parse_term(CELL)
    q = refresh(p, "#3")
    (pi, cont), = p.branches
    (qi, qcont), = q.branches
    assert [b.display for b in qi.binders] == ["a", "b"]
    assert set(qi.binders).isdisjoint(pi.binders)
    # the fresh binders are the ones the continuation reads
    (out, _), = qcont.branches
    assert out.payload == (Op("+", (Var(qi.binders[0]), Var(qi.binders[1]))),)
    assert qi.vars == pi.vars and qi.ready == pi.ready and qi.fields == pi.fields
    assert free_names(q) == free_names(p)
    assert canonical_key(q) == canonical_key(p)
    assert tags(q) == [t and t + "#3" for t in tags(p)] and tags(q)[1].endswith("#3")


def test_capture_under_a_cell_binder_renames_it():
    p = parse_term("{0 | x' = 1}(z) . c!<z + w>")
    (pi, _), = p.branches
    z = pi.binders[0]
    q = substitute(p, Substitution({by_display(p)["w"]: Var(z)}))
    (qi, qcont), = q.branches
    (out, _), = qcont.branches
    z2 = qi.binders[0]
    assert z2 != z and z2.display == "z"
    assert out.payload == (Op("+", (Var(z2), Var(z))),)
    assert z in free_names(q)


@pytest.mark.parametrize("text", ["{0 | x' = 1}", "{0 | x' = 1 ; ready x!}", "{0 | x' = 1 ; ready x?}(v) . c!<v>"])
def test_substituting_a_non_name_for_a_cell_variable_fails(text):
    p = parse_term(text)
    s = Substitution({by_display(p)["x"]: Const(2.0)})
    for rewrite in (lambda: substitute(p, s), lambda: refresh(p, "@1", s)):
        with pytest.raises(SubstitutionError, match="for x in continuous variable position"):
            rewrite()


def test_substituting_a_non_name_for_a_channel_fails():
    p = parse_term("tau . c!<1>")
    with pytest.raises(SubstitutionError, match="for c in channel position"):
        substitute(p, Substitution({by_display(p)["c"]: Const(2.0)}))


def test_definition_call_with_a_non_name_channel_names_its_position():
    with pytest.raises(ParseError) as e:
        parse("def f(c) = c!<1>; run f(2);")
    assert str(e.value) == "1:23: in call to f: cannot substitute non-name expression for c in channel position"
    assert (e.value.line, e.value.col) == (1, 23)


def test_one_pass_instance_equals_refresh_then_substitute():
    for text in random_terms(11, 150) + [CELL]:
        p = parse_term(text)
        names = sorted(free_names(p), key=lambda n: n.id)
        if len(names) < 2:
            continue
        s = Substitution({names[0]: Var(names[1]), names[1]: Var(names[0])})
        one, two = refresh(p, "@7", s), substitute(refresh(p, "@7"), s)
        assert canonical_key(one) == canonical_key(two)
        assert tags(one) == tags(two)
